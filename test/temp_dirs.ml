(* Temporary directories and socket paths for the test executables. Each
   is made under the system temp dir and removed, with everything in it,
   when the test case that made it ends: run the suite with {!run}. *)

let made = ref []

let rec remove path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* [track path] removes [path] at the end of the current test case *)
let track path =
  made := path :: !made;
  path

(* [dir prefix] is a new empty directory named [prefix] plus a random
   suffix *)
let dir prefix = track (Filename.temp_dir prefix "")

let clean () =
  let paths = !made in
  made := [];
  List.iter remove paths

(* [run name suites] is [Alcotest.run name suites], each test case
   followed by the removal of what it made *)
let run name suites =
  let tidy (case, speed, f) = (case, speed, fun () -> Fun.protect ~finally:clean f) in
  Alcotest.run name (List.map (fun (group, cases) -> (group, List.map tidy cases)) suites)
