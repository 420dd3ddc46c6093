(* The server's own counters, scraped over ADMIN: "server" is key=value
   lines (wire-server counters plus coord_* poke counters), "stats" is the
   coordinator's "key: value" listing.  Both parse into one table; the
   benchmark reports deltas between a snapshot after warm-up and one at
   the end. *)

type t = (string, string) Hashtbl.t

let parse_into tbl ~sep body =
  List.iter
    (fun line ->
      match String.index_opt line sep with
      | Some i ->
        let k = String.trim (String.sub line 0 i) in
        let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        Hashtbl.replace tbl (String.map (fun c -> if c = ' ' then '_' else c) k) v
      | None -> ())
    (String.split_on_char '\n' body)

let of_bodies ~server ~stats : t =
  let tbl = Hashtbl.create 128 in
  parse_into tbl ~sep:'=' server;
  parse_into tbl ~sep:':' stats;
  tbl

let num (t : t) k =
  match Hashtbl.find_opt t k with
  | Some v -> (match float_of_string_opt v with Some f -> f | None -> nan)
  | None -> nan

let delta ~before ~after k = num after k -. num before k

(* Upper bounds (µs) of the server's submit-latency buckets; the last
   bucket is open. *)
let latency_bounds =
  [| 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000.; 20000.; 50000.; 100000. |]

let hist (t : t) =
  let counts = Array.make (Array.length latency_bounds + 1) 0 in
  (match Hashtbl.find_opt t "submit_latency_hist_us" with
  | None | Some "" -> ()
  | Some h ->
    List.iter
      (fun part ->
        match String.split_on_char ':' part with
        | [ label; c ] ->
          let c = int_of_string c in
          if label = "inf" then counts.(Array.length latency_bounds) <- c
          else
            let b = float_of_string (String.sub label 2 (String.length label - 2)) in
            Array.iteri (fun i ub -> if ub = b then counts.(i) <- c) latency_bounds
        | _ -> ())
      (String.split_on_char ',' h));
  counts

(** [hist_percentile ~before ~after p] — the server-side submit latency
    percentile over the interval, as the upper bound of the bucket holding
    it (the server keeps only the log histogram).  The open bucket reads
    as the server's all-time maximum. *)
let hist_percentile ~before ~after p =
  let b = hist before and a = hist after in
  let d = Array.mapi (fun i x -> x - b.(i)) a in
  let total = Array.fold_left ( + ) 0 d in
  if total = 0 then nan
  else begin
    let target = Float.ceil (p /. 100. *. float_of_int total) in
    let acc = ref 0 and res = ref nan in
    Array.iteri
      (fun i c ->
        acc := !acc + c;
        if Float.is_nan !res && float_of_int !acc >= target then
          res :=
            if i < Array.length latency_bounds then latency_bounds.(i)
            else num after "submit_latency_max_us")
      d;
    !res
  end

(** Mean server-side submit latency (µs) over the interval, from the
    running mean and count the server reports at each end. *)
let interval_mean ~before ~after =
  let sum t = num t "submit_latency_mean_us" *. num t "submits" in
  (sum after -. sum before) /. (num after "submits" -. num before "submits")

(** Snapshot over an open connection; responses to anything else go to
    [other]. *)
let scrape ?other conn ~id =
  let body what id =
    match Conn.call ?other conn (Net.Wire.Admin { id; what }) with
    | Net.Wire.Stats { body; _ } -> body
    | _ -> failwith ("unexpected answer to ADMIN " ^ what)
  in
  let server = body "server" id in
  let stats = body "stats" (id + 1) in
  of_bodies ~server ~stats
