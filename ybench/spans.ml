(* In-memory span recorder for the traced replay.

   A span is (layer name, start, end, parent span, request id).  Spans are
   appended to growable arrays while the replay runs and only analysed at
   the end.  A layer's self time is its span's duration minus the part of
   that interval its child spans cover. *)

type span = {
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;  (** index of the causing span, -1 for a root *)
  req : int;  (** request id shared by every span of one request *)
}

type t = {
  mutable enabled : bool;
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;  (** open spans, innermost first *)
}

let dummy = { name = ""; start_ns = 0; end_ns = 0; parent = -1; req = -1 }
let create ~enabled = { enabled; spans = Array.make 4096 dummy; len = 0; stack = [] }

let push t s =
  if t.len = Array.length t.spans then begin
    let a = Array.make (2 * t.len) dummy in
    Array.blit t.spans 0 a 0 t.len;
    t.spans <- a
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

(** [record t ~req name f] — run [f ()] inside a span named [name], child
    of the innermost open span.  With tracing disabled it is a plain
    call. *)
let record t ~req name f =
  if not t.enabled then f ()
  else begin
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let idx = push t { name; start_ns = Clock.now_ns (); end_ns = 0; parent; req } in
    t.stack <- idx :: t.stack;
    let finish () =
      t.stack <- List.tl t.stack;
      t.spans.(idx) <- { (t.spans.(idx)) with end_ns = Clock.now_ns () }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(** [add t s] — append a finished span (used by tests and by callers that
    time an interval themselves); returns its index. *)
let add t s = push t s

let spans t = Array.sub t.spans 0 t.len

(** Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b))
          else (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match cur with None -> total | Some (a, b) -> total + (b - a)

(** [self_times spans] — per span, its duration minus the part of it its
    direct children cover (children overlapping each other count once). *)
let self_times (spans : span array) =
  let n = Array.length spans in
  let children = Array.make n [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then children.(s.parent) <- i :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      let kids = List.map (fun c -> (spans.(c).start_ns, spans.(c).end_ns)) children.(i) in
      s.end_ns - s.start_ns - covered ~lo:s.start_ns ~hi:s.end_ns kids)
    spans

(** [by_name spans] — self times in ns grouped by layer name. *)
let by_name spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let buf =
        match Hashtbl.find_opt tbl s.name with
        | Some b -> b
        | None ->
          let b = Stat.Buf.create () in
          Hashtbl.add tbl s.name b;
          b
      in
      Stat.Buf.add buf (float_of_int self.(i)))
    spans;
  tbl
