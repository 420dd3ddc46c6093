(* Workload definitions and the seeded op streams the benchmark drives.

   Everything here is a pure function of (workload, seed): the wire run and
   the traced in-process replay consume identical streams, and the server
   only ever sees the SQL text generated here. *)

module Scengen = Scenarios.Scengen

type workload = {
  name : string;
  durability : string;  (** the server's [--durability] *)
  rate : float;  (** open-loop arrivals per second *)
  capacity : float;
      (** closed-loop ops/s expected on an undisturbed host; sizes the
          capacity phase, which runs a fixed number of ops so the server's
          final state (and peak RSS) does not depend on how fast it was *)
  backlog : int;  (** entangled queries parked before measuring *)
}

(* Open-loop rates sit at a quarter to a third of the closed-loop capacity
   measured on a 2-core x86-64 VM: at half, CPU steal from neighbours on a
   shared host pushed runs into queueing.  Keep in step with the "why"
   lines of BENCHMARK.json. *)
let workloads =
  [
    { name = "write_fsync"; durability = "fsync"; rate = 6000.; capacity = 25000.;
      backlog = 300 };
    { name = "read_mostly"; durability = "flush"; rate = 10000.; capacity = 30000.;
      backlog = 300 };
    { name = "coordinate"; durability = "flush"; rate = 1500.; capacity = 4500.;
      backlog = 20_000 };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(** Server flags besides [--port 0].  [--travel] is there because answer
    relations have no SQL DDL: the travel dataset declares [FlightRes],
    which every entangled query of every workload writes into. *)
let server_flags w ~wal =
  [ "--travel"; "--wal"; wal; "--durability"; w.durability ]

(* ---- sizes ---- *)

let cnt_keys = 1000  (* counter rows the stream updates *)
let pinned_base = 1_000_000  (* counter rows only the backlog reads *)
let item_rows = 100_000
let load_chunk = 500  (* rows per multi-row INSERT while loading *)
let range_width = 8  (* counter keys one range UPDATE touches *)
let dests = 64  (* destinations groups travel to; all have flights *)
let ghost_dests = 1000  (* the backlog spreads over these (first [dests] included) *)
let flights_per_dest = 2
let holds = 12
let max_gap = 40  (* stream positions between members of one group *)

(* ---- ops ---- *)

type kind =
  | Point of int  (** SELECT one Item row by primary key *)
  | Insert of { id : int; c : int }  (** blind INSERT, fresh key *)
  | Counter of { key : int; k : int }  (** v = v + k on one key *)
  | Range of int  (** v = v + 1 on [range_width] keys from this one *)
  | Flight of { fno : int; dest : int }  (** new flight to a waited-on dest *)
  | Member of { group : int; idx : int; size : int; dest : int }
      (** one member of a k-way flight coordination group *)

type op = { seq : int; conn : int; kind : kind; sql : string }

type cls = Read | Write | Entangled

let cls = function
  | Point _ -> Read
  | Member _ -> Entangled
  | Insert _ | Counter _ | Range _ | Flight _ -> Write

let dest_name d = Printf.sprintf "Z%d" d
let member_name ~group ~idx = Printf.sprintf "p%d%c" group (Char.chr (97 + idx))
let item_grp id = id mod 97
let item_val id = Printf.sprintf "v%d" (id * 7919 mod 1_000_003)

let member_sql ~group ~idx ~size ~dest =
  let name = member_name ~group ~idx in
  if size = 2 then
    Travel.Workload.pair_sql ~user:name
      ~friend:(member_name ~group ~idx:(1 - idx))
      ~dest:(dest_name dest)
  else
    let partners =
      List.filter (fun j -> j <> idx) (List.init size Fun.id)
      |> List.map (fun j ->
             Printf.sprintf "('%s', fno) IN ANSWER FlightRes"
               (member_name ~group ~idx:j))
    in
    Printf.sprintf
      "SELECT '%s', fno INTO ANSWER FlightRes WHERE fno IN (SELECT fno FROM \
       Flights WHERE dest = '%s') AND %s CHOOSE 1"
      name (dest_name dest)
      (String.concat " AND " partners)

let flight_sql ~fno ~dest =
  Printf.sprintf "INSERT INTO Flights VALUES (%d, 'Ithaca', '%s', 1, 100.0, 8)"
    fno dest

let sql_of_kind = function
  | Point id -> Printf.sprintf "SELECT id, grp, val FROM Item WHERE id = %d" id
  | Insert { id; c } ->
    Printf.sprintf "INSERT INTO Ins VALUES (%d, %d, 'n%d')" id c id
  | Counter { key; k } ->
    Printf.sprintf "UPDATE Cnt SET v = v + %d WHERE id = %d" k key
  | Range a ->
    Printf.sprintf "UPDATE Cnt SET v = v + 1 WHERE id BETWEEN %d AND %d" a
      (a + range_width - 1)
  | Flight { fno; dest } -> flight_sql ~fno ~dest:(dest_name dest)
  | Member { group; idx; size; dest } -> member_sql ~group ~idx ~size ~dest

(** The exact [Sql_result] text the server must answer a read with (the
    Item table is never written after loading). *)
let expected_read = function
  | Point id ->
    Some
      (Printf.sprintf "id | grp | val\n(%d, %d, '%s')\n(1 row(s))" id
         (item_grp id) (item_val id))
  | _ -> None

(** Rows a write must report as affected. *)
let expected_affected = function
  | Insert _ | Counter _ | Flight _ -> Some 1
  | Range _ -> Some range_width
  | _ -> None

(* ---- set-up script ---- *)

(** What runs before measuring: DDL one statement at a time, then bulk
    loads and the parked backlog, both pipelined. *)
type setup = {
  ddl : string list;
  load : (string * int) list;  (** statement, rows it must affect *)
  parked : (string * string) list;  (** entangled SQL, its member name *)
}

let rows_insert table rows =
  Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " rows)

let chunked table n row =
  List.init ((n + load_chunk - 1) / load_chunk) (fun c ->
      let lo = c * load_chunk in
      let hi = min n (lo + load_chunk) in
      (rows_insert table (List.init (hi - lo) (fun i -> row (lo + i))), hi - lo))

(** Counter rows only the backlog reads, so the stream never writes a key a
    parked query is pinned on. *)
let pinned_backlog n =
  List.init n (fun j ->
      let name = Printf.sprintf "w%d" j in
      ( Printf.sprintf
          "SELECT '%s', fno INTO ANSWER FlightRes WHERE fno IN (SELECT v FROM \
           Cnt WHERE id = %d) AND ('ghost_%s', fno) IN ANSWER FlightRes CHOOSE 1"
          name (pinned_base + j) name,
        name ))

let initial_fno ~dest ~j = 200_000 + (dest * 10) + j
let hold_fno j = 500 + j

(* Specific-flight holds whose pinned constant is a constant expression
   ([k + 0], [-k]); the constraint index files them as unpinned. *)
let hold_sql j =
  let name = Printf.sprintf "h%d" j in
  let pin =
    if j mod 2 = 0 then Printf.sprintf "%d + 0" (initial_fno ~dest:j ~j:0)
    else Printf.sprintf "-%d" (hold_fno j)
  in
  ( Printf.sprintf
      "SELECT '%s', fno INTO ANSWER FlightRes WHERE fno IN (SELECT fno FROM \
       Flights WHERE fno = %s) AND ('ghost_%s', fno) IN ANSWER FlightRes \
       CHOOSE 1"
      name pin name,
    name )

let setup w =
  match w.name with
  | "coordinate" ->
    let flights =
      List.concat
        (List.init dests (fun d ->
             List.init flights_per_dest (fun j ->
                 Printf.sprintf "(%d, 'Ithaca', '%s', 1, 100.0, 8)"
                   (initial_fno ~dest:d ~j) (dest_name d))))
    in
    let negative =
      List.init holds (fun j ->
          Printf.sprintf "(-%d, 'Ithaca', 'H', 1, 100.0, 8)" (hold_fno j))
      |> List.filteri (fun j _ -> j mod 2 = 1)
    in
    let ghosts =
      List.init w.backlog (fun j ->
          let name = Printf.sprintf "g%d" j in
          ( Travel.Workload.pair_sql ~user:name ~friend:("ghost_" ^ name)
              ~dest:(dest_name (j mod ghost_dests)),
            name ))
    in
    {
      ddl = [];
      load =
        [ (rows_insert "Flights" flights, List.length flights);
          (rows_insert "Flights" negative, List.length negative) ];
      parked = List.init holds hold_sql @ ghosts;
    }
  | _ ->
    let items =
      if w.name = "read_mostly" then
        chunked "Item" item_rows (fun id ->
            Printf.sprintf "(%d, %d, '%s')" id (item_grp id) (item_val id))
      else []
    in
    {
      ddl =
        [ "CREATE TABLE Cnt (id INT PRIMARY KEY, v INT)";
          "CREATE TABLE Ins (id INT PRIMARY KEY, c INT, note TEXT)" ]
        @ (if w.name = "read_mostly" then
             [ "CREATE TABLE Item (id INT PRIMARY KEY, grp INT, val TEXT)" ]
           else []);
      load =
        chunked "Cnt" cnt_keys (fun id -> Printf.sprintf "(%d, 0)" id)
        @ chunked "Cnt" w.backlog (fun j ->
              Printf.sprintf "(%d, %d)" (pinned_base + j) j)
        @ items;
      parked = pinned_backlog w.backlog;
    }

(* ---- the op stream ---- *)

module Pq = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type stream = {
  w : workload;
  mix : Random.State.t;
  keys : Scengen.t;  (** Zipfian counter keys *)
  items : Scengen.t;  (** Zipfian Item ids *)
  dest_gen : Scengen.t;  (** Zipfian destinations *)
  mutable seq : int;
  mutable next_fno : int;
  mutable next_group : int;
  mutable sched : kind Pq.t;  (** group members waiting for their slot *)
  mutable tiebreak : int;
}

let stream w ~seed =
  let label s = Printf.sprintf "ybench.%s.%s" w.name s in
  {
    w;
    mix = Scengen.stream ~seed (label "mix");
    keys = Scengen.create ~seed ~label:(label "keys") ~users:cnt_keys ();
    items = Scengen.create ~seed ~label:(label "items") ~users:item_rows ();
    dest_gen = Scengen.create ~seed ~label:(label "dests") ~users:dests ();
    seq = 0;
    next_fno = 1_000_000;
    next_group = 0;
    sched = Pq.empty;
    tiebreak = 0;
  }

let pct s = Random.State.int s.mix 100

let dml s =
  let r = pct s in
  if r < 60 then Insert { id = s.seq; c = 1 + Random.State.int s.mix 9 }
  else if r < 90 then
    Counter { key = Scengen.user s.keys; k = 1 + Random.State.int s.mix 9 }
  else Range (Random.State.int s.mix (cnt_keys - range_width + 1))

(* Item ids: Zipf ranks scattered over the table by a bijection, so hot
   keys are not one contiguous block. *)
let item_id s = Scengen.user s.items * 7919 mod item_rows

let schedule s pos kind =
  s.sched <- Pq.add (pos, s.tiebreak) kind s.sched;
  s.tiebreak <- s.tiebreak + 1

let coordinate_kind s =
  match Pq.min_binding_opt s.sched with
  | Some (((pos, _) as key), kind) when pos <= s.seq ->
    s.sched <- Pq.remove key s.sched;
    kind
  | _ ->
    if pct s < 1 then begin
      let fno = s.next_fno in
      s.next_fno <- fno + 1;
      Flight { fno; dest = Scengen.user s.dest_gen }
    end
    else begin
      let group = s.next_group in
      s.next_group <- group + 1;
      let size = if pct s < 20 then 3 else 2 in
      let dest = Scengen.user s.dest_gen in
      for idx = 1 to size - 1 do
        let gap = 1 + Random.State.int s.mix max_gap in
        schedule s (s.seq + gap) (Member { group; idx; size; dest })
      done;
      Member { group; idx = 0; size; dest }
    end

(** [next s] — the stream's next op. *)
let next s =
  let kind =
    match s.w.name with
    | "write_fsync" -> dml s
    | "read_mostly" ->
      if pct s < 80 then Point (item_id s) else dml s
    | _ -> coordinate_kind s
  in
  let conn =
    match kind with
    | Member { group; idx; _ } -> (group + idx) land 1
    | _ -> s.seq land 1
  in
  let op = { seq = s.seq; conn; kind; sql = sql_of_kind kind } in
  s.seq <- s.seq + 1;
  op

(** The first [n] ops of a stream. *)
let take w ~seed n =
  let s = stream w ~seed in
  List.init n (fun _ -> next s)

(* ---- final-state queries (the acked-write check) ---- *)

let q_count_ins = "SELECT COUNT(*) FROM Ins"
let q_cnt = Printf.sprintf "SELECT id, v FROM Cnt WHERE id < %d" cnt_keys
let q_sum = Printf.sprintf "SELECT SUM(v) FROM Cnt WHERE id < %d" cnt_keys
let q_count_flights = "SELECT COUNT(*) FROM Flights WHERE fno >= 1000000"
let q_answers = "SELECT name, fno FROM FlightRes"

let check_queries w =
  if w.name = "coordinate" then [ q_count_flights; q_answers ]
  else [ q_count_ins; q_cnt; q_sum ]
