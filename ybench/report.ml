(* Output: human-readable metric lines, then the one-line JSON result. *)

type metric = { name : string; unit_ : string; value : float; note : string }

let metric ?(note = "") name unit_ value = { name; unit_; value; note }

let print_lines title ms =
  Printf.printf "== %s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.3f %-8s %s\n" m.name m.value m.unit_ m.note)
    ms

(* JSON numbers cannot be nan/inf: a metric without samples reads 0, a
   latency percentile that fell on failed ops (infinite) reads 1e18 *)
let json_number x =
  if Float.is_nan x then "0"
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else if x > 0. then "1e18"
  else "-1e18"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
              (json_number m.value) (json_string m.unit_))
          ms))
