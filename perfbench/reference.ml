(* The reference kernel: a fixed piece of allocation-heavy OCaml work,
   independent of the measured program, run next to every measured unit.

   The shared machine's speed for memory-heavy code drifts by a third
   over minutes, while the time of a unit divided by the time of this
   kernel measured beside it stays within a few percent. The workloads
   therefore report their times in reference seconds: a unit's wall
   time scaled by [nominal /. kernel time]. The kernel runs under fixed
   GC settings, so a change to the program's GC settings moves the
   program's times and not the kernel's. *)

module IM = Map.Make (Int)

(* Seconds one kernel run takes at reference speed; fixed forever, so
   figures from different commits compare. *)
let nominal = 0.1

let gc_settings saved = { saved with Gc.minor_heap_size = 262_144; space_overhead = 120 }

(* The work: a persistent map, a string-keyed hash table and a list
   sort, the allocation and pointer-chasing mix of the scheduler's own
   data structures. Returns a checksum so none of it is optimised away. *)
let work () =
  let m = ref IM.empty in
  for i = 0 to 30_000 do
    m := IM.add ((i * 7919) land 0xfffff) i !m
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 30_000 do
    Hashtbl.replace h (string_of_int (i * 31)) i
  done;
  let hits = ref 0 in
  for i = 0 to 60_000 do
    match Hashtbl.find_opt h (string_of_int (i * 17)) with Some v -> hits := !hits + v | None -> ()
  done;
  let x = ref 12345 in
  let floats =
    List.init 50_000 (fun _ ->
        x := (!x * 1103515245 + 12345) land 0x3fffffff;
        float_of_int !x)
  in
  IM.fold (fun _ v acc -> acc + v) !m !hits + List.length (List.sort Float.compare floats)

(* One timed kernel run, in seconds. *)
let run () =
  let saved = Gc.get () in
  Gc.set (gc_settings saved);
  let t0 = Css_util.Wall_clock.now () in
  ignore (Sys.opaque_identity (work ()));
  let dt = Css_util.Wall_clock.now () -. t0 in
  Gc.set saved;
  dt
