(* Small statistics and JSON helpers shared by the benchmark's modes. *)

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio num den = if den = 0. then 0. else num /. den

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON has no nan or infinity; a metric that cannot be computed reads 0. *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* [(name, value, unit)] as the benchmark's result line. *)
let result_line ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
      (json_float value) (json_string unit)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
