(* Unit tests for the tuple-level constraint index: Plan.constraints
   extraction, Pending.probe under partial grounding, remove-then-poke,
   bucket churn, and coordinator-level tuple-driven retry targeting. *)

open Relational
open Core

let v_int i = Value.Int i
let v_str s = Value.Str s

let compile cat sql =
  match Sql.Parser.parse_one sql with
  | Sql.Ast.Select s -> Sql.Compile.compile_select cat s
  | _ -> Alcotest.fail "expected a SELECT"

(* ------------------------------------------------------------------ *)
(* Plan.constraints extraction. *)

let make_items () =
  let db = Database.create () in
  let items =
    Database.create_table db
      (Schema.make ~primary_key:[ 0 ] "Items"
         [
           Schema.column "id" Ctype.TInt;
           Schema.column "grp" Ctype.TInt;
           Schema.column "tag" Ctype.TText;
         ])
  in
  for i = 0 to 7 do
    ignore (Table.insert items [| v_int i; v_int (i mod 3); v_str "x" |])
  done;
  db

(* All equality constraints extracted for [table], over every access,
   sorted. *)
let eqs_for plan table =
  Plan.constraints plan
  |> List.concat_map (fun (t, _, eqs) -> if t = table then eqs else [])
  |> List.sort compare

let accesses_of plan table =
  Plan.constraints plan |> List.filter (fun (t, _, _) -> t = table)

let test_extract_equality () =
  let db = make_items () in
  let cat = db.Database.catalog in
  let plan = compile cat "SELECT id FROM Items WHERE grp = 5" in
  Alcotest.(check bool)
    "grp = 5 extracted" true
    (List.mem (1, v_int 5) (eqs_for plan "items"));
  let plan = compile cat "SELECT id FROM Items WHERE grp = 5 AND tag = 'x'" in
  let eqs = eqs_for plan "items" in
  Alcotest.(check bool)
    "conjunction: both extracted" true
    (List.mem (1, v_int 5) eqs && List.mem (2, v_str "x") eqs);
  (* reversed operand order *)
  let plan = compile cat "SELECT id FROM Items WHERE 5 = grp" in
  Alcotest.(check bool)
    "const = col extracted" true
    (List.mem (1, v_int 5) (eqs_for plan "items"))

let test_extract_fallbacks () =
  let db = make_items () in
  let cat = db.Database.catalog in
  let no_eqs sql =
    let plan = compile cat sql in
    (* the access is still listed — table-level targeting keeps working —
       but no equality constraint narrows it *)
    Alcotest.(check bool)
      (sql ^ ": access listed")
      true
      (accesses_of plan "items" <> []);
    Alcotest.(check (list (pair int (testable Value.pp Value.equal))))
      (sql ^ ": no constraints")
      [] (eqs_for plan "items")
  in
  no_eqs "SELECT id FROM Items WHERE grp > 5";
  no_eqs "SELECT id FROM Items WHERE grp + 1 = 5";
  no_eqs "SELECT id FROM Items WHERE grp = 5 OR tag = 'y'";
  no_eqs "SELECT id FROM Items"

let test_extract_through_stable_ops () =
  let db = make_items () in
  let cat = db.Database.catalog in
  let plan =
    compile cat
      "SELECT DISTINCT id FROM Items WHERE grp = 2 ORDER BY id LIMIT 3"
  in
  Alcotest.(check bool)
    "survives Distinct/Sort/Limit" true
    (List.mem (1, v_int 2) (eqs_for plan "items"))

let test_extract_index_lookup () =
  let db = make_items () in
  let cat = db.Database.catalog in
  (* primary-key point lookup: whether the planner picks Index_lookup or
     Filter+Scan, the (col 0, 3) constraint must surface *)
  let plan = compile cat "SELECT grp FROM Items WHERE id = 3" in
  Alcotest.(check bool)
    "pk lookup key extracted" true
    (List.mem (0, v_int 3) (eqs_for plan "items"))

(* Literal-only subexpressions fold before extraction: a negated,
   zero-offset or parenthesised literal pins exactly like the bare one. *)
let test_extract_folded_literals () =
  let db = make_items () in
  let cat = db.Database.catalog in
  List.iter
    (fun (pred, k) ->
      let plan = compile cat ("SELECT id FROM Items WHERE " ^ pred) in
      Alcotest.(check (list (pair int (testable Value.pp Value.equal))))
        (pred ^ " pins") [ (1, v_int k) ] (eqs_for plan "items"))
    [
      ("grp = -5", -5);
      ("grp = 5 + 0", 5);
      ("grp = (5)", 5);
      ("-(-5) = grp", 5);
      ("grp = 2 * 3 - 1", 5);
    ];
  (* a literal expression that raises stays unfolded: no pin, and the
     error still surfaces at execution, not at compile time *)
  let plan = compile cat "SELECT id FROM Items WHERE grp = 1 / 0" in
  Alcotest.(check (list (pair int (testable Value.pp Value.equal))))
    "1 / 0 does not pin" [] (eqs_for plan "items");
  match Executor.run cat plan with
  | _ -> Alcotest.fail "division by zero must still raise at run time"
  | exception Errors.Db_error _ -> ()

(* Property: a compiled plan's pin set is invariant under the constant
   rewrites [-k] (as [-(-(k))], which keeps the value), [k + 0] and [(k)],
   nested in any order, on every equality conjunct. *)
let prop_pins_invariant_under_const_rewrites =
  let db = make_items () in
  let cat = db.Database.catalog in
  let lit k = if k < 0 then Printf.sprintf "(%d)" k else string_of_int k in
  let rewrite text = function
    | `Neg -> Printf.sprintf "-(-(%s))" text
    | `Plus0 -> Printf.sprintf "%s + 0" text
    | `Paren -> Printf.sprintf "(%s)" text
  in
  let gen =
    QCheck.Gen.(
      let rewrites = list_size (int_range 1 3) (oneofl [ `Neg; `Plus0; `Paren ]) in
      pair
        (pair (int_range (-50) 50) rewrites)
        (pair (int_range (-50) 50) rewrites))
  in
  QCheck.Test.make ~name:"pin set invariant under constant rewrites"
    ~count:200 (QCheck.make gen)
    (fun ((g, rg), (i, ri)) ->
      let sql grp id =
        Printf.sprintf "SELECT tag FROM Items WHERE grp = %s AND id = %s" grp
          id
      in
      let plain = compile cat (sql (lit g) (lit i)) in
      let rewritten =
        compile cat
          (sql
             (List.fold_left rewrite (lit g) rg)
             (List.fold_left rewrite (lit i) ri))
      in
      let pins plan =
        List.map
          (fun (t, arity, eqs) -> (t, arity, List.sort compare eqs))
          (Plan.constraints plan)
      in
      pins plain = pins rewritten
      && List.mem (1, v_int g) (eqs_for plain "items")
      && List.mem (0, v_int i) (eqs_for plain "items"))

(* ------------------------------------------------------------------ *)
(* Coordinator-level probing.  Ghost-partner pair queries park forever, so
   the only observable activity is which ones a poke retries. *)

let pair_sql ~me ~table ~dest =
  Printf.sprintf
    "SELECT '%s', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM %s WHERE \
     dest='%s') AND ('ghost_%s', fno) IN ANSWER R CHOOSE 1"
    me table dest me

let make_coord ?config () =
  let db = Database.create () in
  let mk name =
    let t =
      Database.create_table db
        (Schema.make name
           [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
    in
    ignore (Table.insert t [| v_int 1; v_str "Seed" |]);
    t
  in
  let ta = mk "TA" and tb = mk "TB" in
  let coord = Coordinator.create ?config db in
  Coordinator.declare_answer_relation coord
    (Schema.make "R"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  db, coord, ta, tb

let submit_pending coord db ~me ~table ~dest =
  match
    Coordinator.submit coord
      (Translate.of_sql db.Database.catalog ~owner:me
         (pair_sql ~me ~table ~dest))
  with
  | Coordinator.Registered id -> id
  | _ -> Alcotest.fail "query should park (ghost partner)"

let test_probe_partial_grounding () =
  let db, coord, _, _ = make_coord () in
  let qa = submit_pending coord db ~me:"ua" ~table:"TA" ~dest:"Paris" in
  let qb = submit_pending coord db ~me:"ub" ~table:"TA" ~dest:"Rome" in
  let qc = submit_pending coord db ~me:"uc" ~table:"TB" ~dest:"Paris" in
  let pending = Coordinator.pending coord in
  (* fno is unconstrained (any value matches via the variable bucket); dest
     discriminates *)
  Alcotest.(check (list int))
    "Paris row wakes only TA's Paris reader" [ qa ]
    (Pending.probe pending ~table:"TA" [| v_int 99; v_str "Paris" |]);
  Alcotest.(check (list int))
    "Rome row wakes only TA's Rome reader" [ qb ]
    (Pending.probe pending ~table:"ta" [| v_int 7; v_str "Rome" |]);
  Alcotest.(check (list int))
    "no constraint matches" []
    (Pending.probe pending ~table:"TA" [| v_int 1; v_str "Oslo" |]);
  Alcotest.(check (list int))
    "per-table separation" [ qc ]
    (Pending.probe pending ~table:"TB" [| v_int 1; v_str "Paris" |]);
  Alcotest.(check (list int))
    "unknown table" []
    (Pending.probe pending ~table:"nope" [| v_int 1 |]);
  (* integral floats normalise: Float 99.0 / Int 99 are SQL-equal *)
  Alcotest.(check (list int))
    "float row value normalised" [ qa ]
    (Pending.probe pending ~table:"TA" [| Value.Float 99.0; v_str "Paris" |])

let test_tuple_targeting () =
  let db, coord, ta, tb = make_coord () in
  let _qa = submit_pending coord db ~me:"ua" ~table:"TA" ~dest:"Paris" in
  let _qb = submit_pending coord db ~me:"ub" ~table:"TA" ~dest:"Rome" in
  let _qc = submit_pending coord db ~me:"uc" ~table:"TB" ~dest:"Paris" in
  let stats = Coordinator.stats coord in
  ignore (Coordinator.poke coord);
  (* first poke: empty snapshot, every table widens, all three retried *)
  Alcotest.(check int) "first poke retries all" 3 stats.Stats.dirty_retries;
  let r0 = stats.Stats.dirty_retries in
  (* a committed insert matching nobody's constraint retries nobody *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn ta [| v_int 10; v_str "Oslo" |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "miss probe retries none" r0 stats.Stats.dirty_retries;
  Alcotest.(check int) "probe counted" 1 stats.Stats.tuple_probes;
  (* a committed insert matching one query's constraint retries exactly it *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn ta [| v_int 11; v_str "Paris" |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "hit probe retries one" (r0 + 1) stats.Stats.dirty_retries;
  Alcotest.(check int) "hit counted" 1 stats.Stats.tuple_hits;
  (* a committed delete widens to the table's full reader set *)
  let victim =
    Table.fold
      (fun acc id row ->
        if Value.as_string row.(1) = "Oslo" then Some id else acc)
      None ta
    |> Option.get
  in
  let f0 = stats.Stats.tuple_fallbacks in
  Database.with_txn db (fun txn -> ignore (Txn.delete txn ta victim));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "delete retries both TA readers" (r0 + 3)
    stats.Stats.dirty_retries;
  Alcotest.(check int) "delete widened" (f0 + 1) stats.Stats.tuple_fallbacks;
  (* a direct insert bypasses the observer: version advance unexplained,
     the table widens — even though the row matches nobody *)
  ignore (Table.insert tb [| v_int 12; v_str "Oslo" |]);
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "direct mutation widens TB" (r0 + 4)
    stats.Stats.dirty_retries;
  (* a committed update probes BOTH images: old wakes the reader losing the
     row, new wakes the reader gaining it *)
  let paris_row =
    Table.fold
      (fun acc id row ->
        if Value.as_string row.(1) = "Paris" then Some id else acc)
      None ta
    |> Option.get
  in
  let p0 = stats.Stats.tuple_probes in
  Database.with_txn db (fun txn ->
      ignore (Txn.update txn ta paris_row [| v_int 11; v_str "Rome" |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "update probes old and new" (p0 + 2)
    stats.Stats.tuple_probes;
  Alcotest.(check int) "update retries both affected readers" (r0 + 6)
    stats.Stats.dirty_retries;
  (* DDL: drop + recreate gets a fresh uid, the table widens *)
  Database.drop_table db "TB";
  let tb' =
    Database.create_table db
      (Schema.make "TB"
         [ Schema.column "fno" Ctype.TInt; Schema.column "dest" Ctype.TText ])
  in
  ignore (Table.insert tb' [| v_int 1; v_str "Seed" |]);
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "DDL widens TB" (r0 + 7) stats.Stats.dirty_retries

(* The unpinned-constant cliff: a [v = -k] reader files under its pin, so
   a commit retries it only when the committed tuple carries -k. *)
let test_negated_literal_targeting () =
  let db = Database.create () in
  let tc =
    Database.create_table db
      (Schema.make "TC"
         [ Schema.column "fno" Ctype.TInt; Schema.column "v" Ctype.TInt ])
  in
  ignore (Table.insert tc [| v_int 1; v_int 0 |]);
  let coord = Coordinator.create db in
  Coordinator.declare_answer_relation coord
    (Schema.make "R"
       [ Schema.column "name" Ctype.TText; Schema.column "fno" Ctype.TInt ]);
  for k = 1 to 4 do
    let me = Printf.sprintf "neg%d" k in
    match
      Coordinator.submit coord
        (Translate.of_sql db.Database.catalog ~owner:me
           (Printf.sprintf
              "SELECT '%s', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM \
               TC WHERE v = -%d) AND ('ghost_%s', fno) IN ANSWER R CHOOSE 1"
              me k me))
    with
    | Coordinator.Registered _ -> ()
    | _ -> Alcotest.fail "query should park (ghost partner)"
  done;
  ignore (Coordinator.poke coord);
  let stats = Coordinator.stats coord in
  let r0 = stats.Stats.dirty_retries in
  let commit fno v =
    Database.with_txn db (fun txn ->
        ignore (Txn.insert txn tc [| v_int fno; v_int v |]));
    ignore (Coordinator.poke coord)
  in
  commit 10 (-2);
  Alcotest.(check int) "v = -2 retries only its reader" (r0 + 1)
    stats.Stats.dirty_retries;
  commit 11 2;
  Alcotest.(check int) "v = 2 matches no negated pin" (r0 + 1)
    stats.Stats.dirty_retries;
  commit 12 (-9);
  Alcotest.(check int) "unpinned value retries nobody" (r0 + 1)
    stats.Stats.dirty_retries

let test_remove_then_poke () =
  let db, coord, ta, _ = make_coord () in
  let qa = submit_pending coord db ~me:"ua" ~table:"TA" ~dest:"Paris" in
  let _qb = submit_pending coord db ~me:"ub" ~table:"TA" ~dest:"Rome" in
  ignore (Coordinator.poke coord);
  let stats = Coordinator.stats coord in
  let r0 = stats.Stats.dirty_retries in
  Alcotest.(check bool) "cancel removes" true (Coordinator.cancel coord qa);
  (* a row that matched only the cancelled query wakes nobody *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn ta [| v_int 20; v_str "Paris" |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "cancelled query not retried" r0
    stats.Stats.dirty_retries;
  (* the surviving query still wakes normally *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn ta [| v_int 21; v_str "Rome" |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "survivor still retried" (r0 + 1)
    stats.Stats.dirty_retries

(* ------------------------------------------------------------------ *)
(* Ans-atom indexing: [IN ANSWER] templates are indexed like db accesses —
   constant argument positions are the pins, so a committed answer tuple
   probes straight to the partners pinned on it. *)

let test_probe_ans_atoms () =
  let db, coord, _, _ = make_coord () in
  let qa = submit_pending coord db ~me:"ua" ~table:"TA" ~dest:"Paris" in
  let qb = submit_pending coord db ~me:"ub" ~table:"TB" ~dest:"Rome" in
  let pending = Coordinator.pending coord in
  (* qa waits on ('ghost_ua', fno): position 0 pinned, position 1 free *)
  Alcotest.(check (list int))
    "answer tuple routes to the pinned waiter" [ qa ]
    (Pending.probe pending ~table:"R" [| v_str "ghost_ua"; v_int 5 |]);
  Alcotest.(check (list int))
    "any fno matches the variable position" [ qa ]
    (Pending.probe pending ~table:"R" [| v_str "ghost_ua"; v_int 999 |]);
  Alcotest.(check (list int))
    "partner name discriminates" [ qb ]
    (Pending.probe pending ~table:"R" [| v_str "ghost_ub"; v_int 5 |]);
  Alcotest.(check (list int))
    "unknown partner wakes nobody" []
    (Pending.probe pending ~table:"R" [| v_str "nobody"; v_int 5 |]);
  (* cancel retires the template bucket along with the db-access buckets *)
  ignore (Coordinator.cancel coord qa);
  Alcotest.(check (list int))
    "cancelled template unindexed" []
    (Pending.probe pending ~table:"R" [| v_str "ghost_ua"; v_int 5 |]);
  Alcotest.(check (list int))
    "survivor still indexed" [ qb ]
    (Pending.probe pending ~table:"R" [| v_str "ghost_ub"; v_int 7 |])

let test_ans_atom_tuple_targeting () =
  let db, coord, _, _ = make_coord () in
  let _qa = submit_pending coord db ~me:"ua" ~table:"TA" ~dest:"Paris" in
  let _qb = submit_pending coord db ~me:"ub" ~table:"TB" ~dest:"Rome" in
  ignore (Coordinator.poke coord);
  let stats = Coordinator.stats coord in
  let r0 = stats.Stats.dirty_retries in
  let r_table = Database.find_table db "R" in
  (* answer relations are catalog tables; a committed answer tuple naming
     ua's ghost partner retries exactly ua's query through the same probe
     path as a base-table insert *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn r_table [| v_str "ghost_ua"; v_int 1 |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "answer tuple retries the pinned waiter only" (r0 + 1)
    stats.Stats.dirty_retries;
  (* an answer tuple for nobody's template retries nobody *)
  Database.with_txn db (fun txn ->
      ignore (Txn.insert txn r_table [| v_str "stranger"; v_int 2 |]));
  ignore (Coordinator.poke coord);
  Alcotest.(check int) "irrelevant answer tuple retries nobody" (r0 + 1)
    stats.Stats.dirty_retries

let test_bucket_churn () =
  let db, coord, _, _ = make_coord () in
  let pending = Coordinator.pending coord in
  let b0 = Pending.bucket_count pending in
  let ids =
    List.init 8 (fun i ->
        submit_pending coord db
          ~me:(Printf.sprintf "u%d" i)
          ~table:(if i mod 2 = 0 then "TA" else "TB")
          ~dest:(Printf.sprintf "D%d" i))
  in
  Alcotest.(check bool) "buckets grew" true (Pending.bucket_count pending > b0);
  List.iter (fun id -> ignore (Coordinator.cancel coord id)) ids;
  Alcotest.(check int) "all buckets reclaimed" b0 (Pending.bucket_count pending);
  Alcotest.(check int) "store empty" 0 (Pending.size pending);
  (* and the store still works after the churn *)
  let q = submit_pending coord db ~me:"again" ~table:"TA" ~dest:"Paris" in
  Alcotest.(check (list int))
    "reusable after churn" [ q ]
    (Pending.probe pending ~table:"TA" [| v_int 1; v_str "Paris" |])

let test_size_counter () =
  let db, coord, _, _ = make_coord () in
  let pending = Coordinator.pending coord in
  Alcotest.(check int) "empty" 0 (Pending.size pending);
  let a = submit_pending coord db ~me:"a" ~table:"TA" ~dest:"P" in
  let b = submit_pending coord db ~me:"b" ~table:"TB" ~dest:"Q" in
  Alcotest.(check int) "two pending" 2 (Pending.size pending);
  Alcotest.(check int) "peak tracks" 2 (Pending.peak pending);
  ignore (Coordinator.cancel coord a);
  Alcotest.(check int) "one after cancel" 1 (Pending.size pending);
  (* double-remove is a no-op on the counter *)
  Pending.remove pending a;
  Alcotest.(check int) "idempotent remove" 1 (Pending.size pending);
  ignore (Coordinator.cancel coord b);
  Alcotest.(check int) "drained" 0 (Pending.size pending);
  Alcotest.(check int) "peak survives" 2 (Pending.peak pending)

let suite =
  [
    Alcotest.test_case "extract: equality conjuncts" `Quick
      test_extract_equality;
    Alcotest.test_case "extract: non-indexable predicates fall back" `Quick
      test_extract_fallbacks;
    Alcotest.test_case "extract: survives Distinct/Sort/Limit" `Quick
      test_extract_through_stable_ops;
    Alcotest.test_case "extract: pk point lookup" `Quick
      test_extract_index_lookup;
    Alcotest.test_case "extract: folded literals pin" `Quick
      test_extract_folded_literals;
    QCheck_alcotest.to_alcotest prop_pins_invariant_under_const_rewrites;
    Alcotest.test_case "probe: partial grounding + value norm" `Quick
      test_probe_partial_grounding;
    Alcotest.test_case "poke: tuple-driven retry targeting" `Quick
      test_tuple_targeting;
    Alcotest.test_case "poke: negated-literal pins target retries" `Quick
      test_negated_literal_targeting;
    Alcotest.test_case "poke: remove then poke" `Quick test_remove_then_poke;
    Alcotest.test_case "probe: ans-atom templates indexed" `Quick
      test_probe_ans_atoms;
    Alcotest.test_case "poke: ans-atom tuple targeting" `Quick
      test_ans_atom_tuple_targeting;
    Alcotest.test_case "churn: buckets reclaimed on remove" `Quick
      test_bucket_churn;
    Alcotest.test_case "size: O(1) counter" `Quick test_size_counter;
  ]
