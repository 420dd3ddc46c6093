(** Compilation of plain (non-entangled) SELECTs into physical plans, plus
    expression resolution helpers shared by UPDATE/DELETE.

    Uncorrelated [IN (SELECT …)] subqueries are evaluated eagerly at compile
    time and folded into {!Relational.Expr.In_tuples} constants; a correlated
    reference surfaces as a [No_such_column] error inside the subquery, which
    is the documented limitation.  Entangled constructs ([INTO ANSWER],
    [IN ANSWER]) are rejected here — they are translated by [Core.Translate]
    into the coordination IR instead. *)

open Relational

(* View expansion depth guard: a view referring (transitively) to itself
   would otherwise recurse forever. *)
let view_depth = ref 0
let max_view_depth = 16

let aggregate_functions = [ "count"; "sum"; "avg"; "min"; "max" ]
let is_aggregate_name f = List.mem f aggregate_functions

let rec has_aggregate (e : Ast.expr) =
  match e with
  | Ast.E_lit _ | Ast.E_param _ | Ast.E_col _ | Ast.E_star -> false
  | Ast.E_neg a | Ast.E_not a | Ast.E_is_null (a, _) -> has_aggregate a
  | Ast.E_bin (_, a, b) -> has_aggregate a || has_aggregate b
  | Ast.E_in_values (a, vs) -> has_aggregate a || List.exists has_aggregate vs
  | Ast.E_in_select (es, _, _) -> List.exists has_aggregate es
  | Ast.E_in_answer (es, _) -> List.exists has_aggregate es
  | Ast.E_like (a, b, _) -> has_aggregate a || has_aggregate b
  | Ast.E_func (f, args) -> is_aggregate_name f || List.exists has_aggregate args
  | Ast.E_tuple es -> List.exists has_aggregate es

(* ------------------------------------------------------------------ *)
(* Name resolution environment: sources in FROM order. *)

type env = { sources : (string * Schema.t * int) list  (** alias, schema, offset *) }

let env_of_schemas (sources : (string * Schema.t) list) =
  let _, items =
    List.fold_left
      (fun (offset, acc) (alias, schema) ->
        offset + Schema.arity schema, (alias, schema, offset) :: acc)
      (0, []) sources
  in
  { sources = List.rev items }

let lookup_env env qualifier name =
  match qualifier with
  | Some q -> (
    let lq = String.lowercase_ascii q in
    match
      List.find_opt
        (fun (alias, _, _) -> String.lowercase_ascii alias = lq)
        env.sources
    with
    | None -> None
    | Some (_, schema, offset) ->
      Option.map (fun i -> offset + i) (Schema.find_column schema name))
  | None -> (
    let hits =
      List.filter_map
        (fun (_, schema, offset) ->
          Option.map (fun i -> offset + i) (Schema.find_column schema name))
        env.sources
    in
    match hits with
    | [ g ] -> Some g
    | [] -> None
    | _ :: _ :: _ ->
      Errors.fail (Errors.No_such_column ("ambiguous column " ^ name)))

(* ------------------------------------------------------------------ *)
(* Expression translation. *)

let rec translate_expr cat env (e : Ast.expr) : Expr.t =
  match e with
  | Ast.E_lit v -> Expr.Const v
  | Ast.E_param i ->
    Errors.fail
      (Errors.Parse_error
         (Printf.sprintf
            "unbound parameter ?%d (bind values with Prepared.exec)" i))
  | Ast.E_col (q, n) -> (
    match lookup_env env q n with
    | Some g -> Expr.Col g
    | None ->
      let shown = match q with Some q -> q ^ "." ^ n | None -> n in
      Errors.fail (Errors.No_such_column shown))
  | Ast.E_neg a -> Expr.Unop (Expr.Neg, translate_expr cat env a)
  | Ast.E_not a -> Expr.Unop (Expr.Not, translate_expr cat env a)
  | Ast.E_is_null (a, positive) ->
    Expr.Unop
      ((if positive then Expr.Is_null else Expr.Is_not_null),
       translate_expr cat env a)
  | Ast.E_bin (op, a, b) ->
    Expr.Binop (op, translate_expr cat env a, translate_expr cat env b)
  | Ast.E_in_values (a, vs) -> (
    let a = translate_expr cat env a in
    let vs = List.map (translate_expr cat env) vs in
    let constants =
      List.map (function Expr.Const v -> Some v | _ -> None) vs
    in
    if List.for_all Option.is_some constants then
      Expr.In_list (a, List.filter_map Fun.id constants)
    else
      (* Non-constant list: expand to a disjunction of equalities. *)
      List.fold_left
        (fun acc v -> Expr.Binop (Expr.Or, acc, Expr.Binop (Expr.Eq, a, v)))
        (Expr.Const (Value.Bool false))
        vs)
  | Ast.E_in_select (es, negated, sub) ->
    let es = List.map (translate_expr cat env) es in
    let plan = compile_select cat sub in
    let rows = Executor.run cat plan in
    if Schema.arity plan.Plan.schema <> List.length es then
      Errors.type_errorf "IN subquery returns %d column(s), left side has %d"
        (Schema.arity plan.Plan.schema)
        (List.length es);
    Expr.In_tuples (es, Tuple.Set.of_list rows, negated)
  | Ast.E_in_answer _ ->
    Errors.fail
      (Errors.Parse_error
         "IN ANSWER constraints are only allowed in entangled queries \
          (missing INTO ANSWER clause?)")
  | Ast.E_like (a, b, negated) ->
    let like = Expr.Like (translate_expr cat env a, translate_expr cat env b) in
    if negated then Expr.Unop (Expr.Not, like) else like
  | Ast.E_func (f, _) when is_aggregate_name f ->
    Errors.fail
      (Errors.Parse_error
         ("aggregate " ^ f ^ " is not allowed in this context"))
  | Ast.E_func (f, args) -> (
    let args = List.map (translate_expr cat env) args in
    let unary fn =
      match args with
      | [ _ ] -> Expr.Fn (fn, args)
      | _ ->
        Errors.fail (Errors.Parse_error (f ^ " expects exactly one argument"))
    in
    match f with
    | "lower" -> unary Expr.Lower
    | "upper" -> unary Expr.Upper
    | "length" -> unary Expr.Length
    | "abs" -> unary Expr.Abs
    | "coalesce" ->
      if args = [] then
        Errors.fail (Errors.Parse_error "coalesce needs at least one argument")
      else Expr.Fn (Expr.Coalesce, args)
    | _ -> Errors.fail (Errors.Parse_error ("unknown function " ^ f)))
  | Ast.E_star ->
    Errors.fail (Errors.Parse_error "* is not allowed in this context")
  | Ast.E_tuple _ ->
    Errors.fail
      (Errors.Parse_error "tuple expression outside IN / INTO ANSWER")

(* ------------------------------------------------------------------ *)
(* SELECT compilation. *)

and compile_select cat (s : Ast.select) : Plan.t =
  if s.Ast.into_answer <> [] then
    Errors.internalf "entangled query reached the plain SQL compiler";
  if s.Ast.choose <> None then
    Errors.fail
      (Errors.Parse_error "CHOOSE requires an entangled query (INTO ANSWER)");
  if s.Ast.fulfilment <> [] then
    Errors.fail
      (Errors.Parse_error
         "THEN effects require an entangled query (INTO ANSWER)");
  (* Sources and environment.  The environment covers the inner FROM block
     followed by the LEFT JOIN tables (in join order), so positions past the
     inner block refer to null-padded columns.  Each source is either a
     stored table or a derived table (a FROM-clause subquery, evaluated
     eagerly like IN-subqueries). *)
  let rec of_item (f : Ast.from_item) =
    match f.Ast.f_source with
    | Ast.F_table name -> (
      match Catalog.find_opt cat name with
      | Some table ->
        let alias = Option.value ~default:name f.Ast.f_alias in
        alias, Planner.make_source alias table, Table.schema table
      | None -> (
        (* not a table: maybe a view — inline its definition as a derived
           table under the same alias *)
        match Catalog.find_view cat name with
        | None -> Errors.fail (Errors.No_such_table name)
        | Some text -> (
          if !view_depth >= max_view_depth then
            Errors.fail
              (Errors.Parse_error
                 ("view nesting too deep while expanding " ^ name
                ^ " (cyclic view definition?)"));
          incr view_depth;
          Fun.protect
            ~finally:(fun () -> decr view_depth)
            (fun () ->
              match Parser.parse_one text with
              | Ast.Select sub ->
                of_item
                  {
                    Ast.f_source = Ast.F_subquery sub;
                    f_alias = Some (Option.value ~default:name f.Ast.f_alias);
                  }
              | _ ->
                Errors.internalf "view %s does not store a SELECT" name))))
    | Ast.F_subquery sub ->
      let alias =
        match f.Ast.f_alias with
        | Some a -> a
        | None ->
          Errors.fail (Errors.Parse_error "derived table requires an alias")
      in
      if sub.Ast.into_answer <> [] then
        Errors.fail
          (Errors.Parse_error "entangled query cannot be a derived table");
      let plan = compile_select cat sub in
      let rows = Executor.run cat plan in
      ( alias,
        Planner.make_derived alias plan.Plan.schema rows,
        plan.Plan.schema )
  in
  let sources = List.map of_item s.Ast.from in
  let lj_sources = List.map (fun (f, on) -> of_item f, on) s.Ast.left_joins in
  let aliases =
    List.map
      (fun (a, _, _) -> String.lowercase_ascii a)
      (sources @ List.map fst lj_sources)
  in
  let rec dup = function
    | [] -> None
    | a :: rest -> if List.mem a rest then Some a else dup rest
  in
  (match dup aliases with
  | Some a -> Errors.fail (Errors.Parse_error ("duplicate table alias " ^ a))
  | None -> ());
  let env =
    env_of_schemas
      (List.map
         (fun (alias, _, schema) -> alias, schema)
         (sources @ List.map fst lj_sources))
  in
  let inner_arity =
    List.fold_left
      (fun acc (_, _, schema) -> acc + Schema.arity schema)
      0 sources
  in
  (* literal-only subexpressions fold to constants ([-5], [5 + 0], [(5)]),
     so [v = -5] pins like [v = 5] in the planner and in
     [Plan.constraints]; anything whose evaluation raises stays unfolded *)
  let where =
    match s.Ast.where with
    | None -> Expr.Const (Value.Bool true)
    | Some w -> Expr.const_fold (translate_expr cat env w)
  in
  (* conjuncts touching only the inner block go to the planner; the rest
     filter after the outer joins *)
  let inner_where, post_where =
    List.partition
      (fun e -> List.for_all (fun c -> c < inner_arity) (Expr.columns e))
      (Expr.conjuncts where)
  in
  if post_where <> [] && lj_sources = [] then
    Errors.internalf "post-join predicates without left joins";
  let planner_sources = List.map (fun (_, src, _) -> src) sources in
  let base = Planner.plan_joins planner_sources (Expr.conjoin inner_where) in
  (* fold in the LEFT JOINs; each ON predicate may only reference tables
     joined so far *)
  let base, _ =
    List.fold_left
      (fun (plan, arity) ((alias, src, schema), on) ->
        let right =
          Planner.plan_joins [ src ] (Expr.Const (Value.Bool true))
        in
        let arity' = arity + Schema.arity schema in
        let pred = translate_expr cat env on in
        List.iter
          (fun c ->
            if c >= arity' then
              Errors.fail
                (Errors.Parse_error
                   ("LEFT JOIN ON for " ^ alias
                  ^ " references a table joined later")))
          (Expr.columns pred);
        Plan.left_join ~pred plan right, arity')
      (base, inner_arity) lj_sources
  in
  let base =
    if post_where = [] then base
    else Plan.filter (Expr.conjoin post_where) base
  in
  let grouped = s.Ast.group_by <> [] || List.exists
                  (function Ast.S_star -> false | Ast.S_expr (e, _) -> has_aggregate e)
                  s.Ast.items
  in
  let qualified_name (alias, _, _) (c : Schema.column) =
    if List.length env.sources > 1 then alias ^ "." ^ c.Schema.col_name
    else c.Schema.col_name
  in
  let plan =
    if not grouped then begin
      (* ORDER BY over the source columns, before projection. *)
      let order_keys =
        List.map
          (fun (e, dir) ->
            let e =
              match e with
              | Ast.E_lit (Value.Int k) -> (
                (* positional reference to a select item *)
                match List.nth_opt s.Ast.items (k - 1) with
                | Some (Ast.S_expr (item, _)) -> translate_expr cat env item
                | Some Ast.S_star | None ->
                  Errors.fail
                    (Errors.Parse_error
                       (Printf.sprintf "ORDER BY position %d out of range" k)))
              | e -> translate_expr cat env e
            in
            e, dir)
          s.Ast.order_by
      in
      let sorted = if order_keys = [] then base else Plan.sort order_keys base in
      let items =
        List.concat_map
          (fun item ->
            match item with
            | Ast.S_star ->
              List.concat_map
                (fun ((_, schema, offset) as src) ->
                  List.mapi
                    (fun i (c : Schema.column) ->
                      Expr.Col (offset + i), qualified_name src c)
                    (Array.to_list schema.Schema.columns))
                env.sources
            | Ast.S_expr (e, alias) ->
              let name =
                match alias, e with
                | Some a, _ -> a
                | None, Ast.E_col (_, n) -> n
                | None, _ -> Pretty.expr_to_string e
              in
              [ translate_expr cat env e, name ])
          s.Ast.items
      in
      Plan.project items sorted
    end
    else begin
      (* Aggregation: every item must be a GROUP BY expression or an
         aggregate call. *)
      let group_exprs = List.map (translate_expr cat env) s.Ast.group_by in
      let aggs = ref [] in
      let translate_agg f args name =
        let agg =
          match f, args with
          | "count", [ Ast.E_star ] -> Plan.Count_star
          | "count", [ a ] -> Plan.Count (translate_expr cat env a)
          | "sum", [ a ] -> Plan.Sum (translate_expr cat env a)
          | "avg", [ a ] -> Plan.Avg (translate_expr cat env a)
          | "min", [ a ] -> Plan.Min (translate_expr cat env a)
          | "max", [ a ] -> Plan.Max (translate_expr cat env a)
          | _ ->
            Errors.fail
              (Errors.Parse_error ("malformed aggregate call " ^ f))
        in
        aggs := !aggs @ [ agg, name ];
        List.length !aggs - 1
      in
      let n_groups = List.length group_exprs in
      let items =
        List.map
          (fun item ->
            match item with
            | Ast.S_star ->
              Errors.fail
                (Errors.Parse_error "* cannot appear in an aggregate query")
            | Ast.S_expr (Ast.E_func (f, args), alias) when is_aggregate_name f ->
              let name = Option.value ~default:f alias in
              let j = translate_agg f args name in
              Expr.Col (n_groups + j), name
            | Ast.S_expr (e, alias) -> (
              let te = translate_expr cat env e in
              let position =
                List.find_index (fun g -> g = te) group_exprs
              in
              match position with
              | Some i ->
                let name =
                  match alias, e with
                  | Some a, _ -> a
                  | None, Ast.E_col (_, n) -> n
                  | None, _ -> Pretty.expr_to_string e
                in
                Expr.Col i, name
              | None ->
                Errors.fail
                  (Errors.Parse_error
                     ("select item " ^ Pretty.expr_to_string e
                    ^ " is neither grouped nor aggregated"))))
          s.Ast.items
      in
      let agg_plan = Plan.aggregate ~group_by:group_exprs ~aggs:!aggs base in
      let projected = Plan.project items agg_plan in
      (* ORDER BY against the projected output, by alias or position. *)
      let out_schema = projected.Plan.schema in
      let order_keys =
        List.map
          (fun (e, dir) ->
            let e =
              match e with
              | Ast.E_lit (Value.Int k) when k >= 1 && k <= List.length items ->
                Expr.Col (k - 1)
              | Ast.E_col (None, n) -> (
                match Schema.find_column out_schema n with
                | Some i -> Expr.Col i
                | None -> Errors.fail (Errors.No_such_column n))
              | _ ->
                Errors.fail
                  (Errors.Parse_error
                     "ORDER BY in aggregate queries must name an output \
                      column or position")
            in
            e, dir)
          s.Ast.order_by
      in
      (* HAVING over the projected output (by alias/name or position). *)
      let projected =
        match s.Ast.having with
        | None -> projected
        | Some h ->
          let resolve q n =
            match q with
            | Some _ -> None
            | None -> Schema.find_column out_schema n
          in
          let translated =
            Expr.resolve resolve
              (translate_expr cat
                 { sources = [ "", out_schema, 0 ] }
                 h)
          in
          Plan.filter translated projected
      in
      if order_keys = [] then projected else Plan.sort order_keys projected
    end
  in
  (if s.Ast.having <> None && not grouped then
     Errors.fail
       (Errors.Parse_error "HAVING requires GROUP BY or aggregation"));
  let plan = if s.Ast.distinct then Plan.distinct plan else plan in
  let plan =
    match s.Ast.limit with None -> plan | Some n -> Plan.limit n plan
  in
  match s.Ast.setop with
  | None -> plan
  | Some (kind, all, rhs) -> Plan.set_op kind ~all plan (compile_select cat rhs)

(** Resolve an AST expression against a single table (UPDATE/DELETE). *)
let expr_for_table cat table (e : Ast.expr) =
  let env = env_of_schemas [ Table.name table, Table.schema table ] in
  translate_expr cat env e

(** Evaluate a constant AST expression (VALUES rows). *)
let constant_expr cat (e : Ast.expr) =
  let env = { sources = [] } in
  let te = translate_expr cat env e in
  Expr.eval [||] te
