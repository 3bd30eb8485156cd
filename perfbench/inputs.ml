(* Seeded workload inputs. Every design is generated from the workload
   seed and serialized to design text here, before any timing, so the
   measured program only ever receives text. *)

module Profile = Css_benchgen.Profile
module Io = Css_netlist.Io

let library = Css_liberty.Library.default

(* Distinct seeds give distinct designs of the same profile: the
   preset's own seed is offset by a large prime multiple of the
   workload seed. *)
let with_seed (p : Profile.t) ~seed = { p with Profile.seed = p.Profile.seed + (7919 * seed) }

let design_text (p : Profile.t) ~seed =
  Io.to_string (Css_benchgen.Generator.generate (with_seed p ~seed))

let preset name = Option.get (Profile.by_name name)

(* The batch workloads' designs are fixed, and the seed only sets the
   order in which the timed passes visit them: seeded variants of one
   preset differ by up to a sixth in scheduler work, which would make a
   run's time say which designs the seed drew rather than how fast the
   program is. *)
let shuffle ~seed xs =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* css-suite: the eight Table I presets at this entity-count scale *)
let css_scale = 2.0

(* flow-sb18: this many sb18 variants at this scale, so a pass signs off
   several designs rather than one *)
let flow_count = 6
let flow_scale = 1.5

let css_suite () =
  List.map
    (fun (p : Profile.t) -> (p.Profile.name, design_text (Profile.scale css_scale p) ~seed:0))
    Profile.presets

let flow_designs () =
  let p = Profile.scale flow_scale (preset "sb18") in
  List.init flow_count (fun j -> design_text p ~seed:j)

(* [delta_stream design ~seed ~n] draws the ECO request stream: [n]
   single-delta requests from the oracle suite's generator, seeded by
   the workload seed. *)
let delta_stream design ~seed ~n =
  let rng = Random.State.make [| seed; 0xec0 |] in
  Css_oracle.Oracles.random_deltas rng design ~n

(* eco-sb18 serves the sb18 preset itself, whatever the seed: per-request
   work is set by the design (a seeded variant can need four times the
   scheduler iterations per request of another), so a seeded design
   would make the run time say which design the seed drew. The seed
   draws the request stream. *)
let eco_inputs ~seed ~requests =
  let text = Io.to_string (Css_benchgen.Generator.generate (preset "sb18")) in
  (text, delta_stream (Io.of_string_exn ~library text) ~seed ~n:requests)
