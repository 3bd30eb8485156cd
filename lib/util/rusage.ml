(* Process memory accounting, read from the kernel's procfs. Linux
   exposes the resident-set high-water mark as the "VmHWM" line and the
   current resident set as "VmRSS" in /proc/self/status (both in kB);
   system-wide reclaimable memory is "MemAvailable" in /proc/meminfo. On
   systems without procfs every reader degrades to 0 rather than
   failing, so bench artifacts stay writable everywhere and a zero field
   means "not measured" by convention. *)

let parse_kb line =
  (* "VmHWM:     12345 kB" -> 12345 *)
  let n = String.length line in
  let rec skip i = if i < n && not ('0' <= line.[i] && line.[i] <= '9') then skip (i + 1) else i in
  let start = skip 0 in
  let rec take i acc =
    if i < n && '0' <= line.[i] && line.[i] <= '9' then
      take (i + 1) ((acc * 10) + (Char.code line.[i] - Char.code '0'))
    else acc
  in
  if start >= n then 0 else take start 0

let scan_kb_field path field =
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let pfx = field ^ ":" in
        let pn = String.length pfx in
        let rec scan () =
          match input_line ic with
          | line ->
            if String.length line >= pn && String.sub line 0 pn = pfx then parse_kb line * 1024
            else scan ()
          | exception End_of_file -> 0
        in
        scan ())

let peak_rss_bytes () = scan_kb_field "/proc/self/status" "VmHWM"

let current_rss_bytes () = scan_kb_field "/proc/self/status" "VmRSS"

let available_bytes () = scan_kb_field "/proc/meminfo" "MemAvailable"

(* Total words ever allocated, minor + direct-to-major, promotions
   excluded (they would double count). Monotone; differences bound the
   allocation cost of a phase or iteration. *)
(* [Gc.quick_stat]'s minor count only moves at a minor collection, so
   between two collections it sees no allocation at all: the minor part
   comes from [Gc.minor_words], which is exact, and the major part from
   [Gc.counters], which counts direct major allocations as they
   happen. *)
let gc_allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted
