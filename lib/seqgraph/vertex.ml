module Design = Css_netlist.Design

type id = int

type t = {
  design : Design.t;
  ffs : Design.cell_id array;
  input_super : id;
  output_super : id;
}

let of_design d =
  let ffs = Design.ffs d in
  { design = d; ffs; input_super = Array.length ffs; output_super = Array.length ffs + 1 }

let num t = Array.length t.ffs + 2

let input_super t = t.input_super

let output_super t = t.output_super

let is_super t v = v = t.input_super || v = t.output_super

let of_ff t ff =
  let i = Design.ff_index t.design ff in
  if i < 0 then raise Not_found else i

let ff_of t v = if is_super t v then None else Some t.ffs.(v)

let ff_id t v = if is_super t v then -1 else t.ffs.(v)

let of_launcher t = function
  | Css_sta.Graph.Launch_ff ff -> of_ff t ff
  | Css_sta.Graph.Launch_port _ -> t.input_super

let of_endpoint t = function
  | Css_sta.Graph.End_ff ff -> of_ff t ff
  | Css_sta.Graph.End_port _ -> t.output_super

let name t design v =
  if v = t.input_super then "<IN>"
  else if v = t.output_super then "<OUT>"
  else Design.cell_name design t.ffs.(v)
