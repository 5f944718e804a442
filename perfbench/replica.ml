(* The traced passes: re-enactments, from outside the library, of the
   call sequences the untraced passes make through [Planner.plan] and
   [Cross.check], with a {!Span} around every public call.  Each follows
   its library counterpart step for step (same calls, same order, same
   arguments), so the spans split the same work the untraced pass times
   as a whole.  The traced run checks that both passes did the same
   work: the library's own counters (instructions retired, store
   traffic, object lookups, simulations) must agree, and a plan must
   render the same JSON.  The per-layer figures the library counts
   itself are read from the untraced pass; the spans only give the
   splits no accessor does. *)

open Tagsim
module Run = Analysis.Run
module Spec = Analysis.Spec
module Cache = Analysis.Cache
module Pool = Analysis.Pool
module Registry = Benchmarks

(* What the plan re-enactment saw, beyond the rendered artifacts. *)
type plan_counts = {
  configs : int; (* distinct configurations of the union *)
  simulations : int;
  distinct_inputs : int; (* distinct [Program.plan_key] over simulated programs *)
}

(* [Planner.plan ~jobs ~engine:`Traced entries artifacts], as
   [Spec.lookup_of] -> [Run.run_many] -> [Run.compute_config] execute it
   in a process whose in-process memos are empty. *)
let plan ~jobs ~entries (artifacts : Spec.artifact list) =
  let distinct =
    Span.with_ "planner.union" (fun () ->
        let seen = Hashtbl.create 512 in
        List.concat_map (fun a -> a.Spec.a_configs entries) artifacts
        |> List.map (fun c -> { c with Run.c_engine = `Traced })
        |> List.filter (fun c ->
               let k = Run.config_key c in
               (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true)))
  in
  let store = Hashtbl.create 512 in
  let measurement c (stats, gcc, gcb, meta) =
    {
      Run.entry = c.Run.c_entry;
      scheme = c.Run.c_scheme;
      support = c.Run.c_support;
      stats;
      gc_collections = gcc;
      gc_bytes_copied = gcb;
      meta;
    }
  in
  let missing =
    List.filter
      (fun c ->
        let probe () = Cache.load (Run.cache_key c) in
        match Span.with_ "cache.probe" probe with
        | Some p ->
            Hashtbl.replace store (Run.matrix_key c)
              (measurement c
                 ( p.Cache.p_stats,
                   p.p_gc_collections,
                   p.p_gc_bytes_copied,
                   p.p_meta ));
            false
        | None -> true)
      distinct
  in
  (* The shared front ends, analyzed once per source under a lock. *)
  let frontends = Hashtbl.create 16 and fe_mutex = Mutex.create () in
  let frontend_of (e : Registry.entry) =
    let k = Digest.string e.Registry.source in
    Mutex.protect fe_mutex (fun () ->
        match Hashtbl.find_opt frontends k with
        | Some fe -> fe
        | None ->
            let fe =
              Span.with_ "frontend" (fun () -> Program.analyze e.Registry.source)
            in
            Hashtbl.replace frontends k fe;
            fe)
  in
  let compute c =
    Span.with_ "pool.task" (fun () ->
        let e = c.Run.c_entry in
        let fe = frontend_of e in
        let p =
          Span.with_ "compile" (fun () ->
              Program.compile_frontend ~opt:c.Run.c_opt ~sched:c.Run.c_sched
                ~sizes:e.Registry.sizes ~scheme:c.Run.c_scheme
                ~support:c.Run.c_support fe)
        in
        let r =
          Span.with_ "sim" (fun () -> Program.run ~engine:c.Run.c_engine p)
        in
        let got =
          match (r.Program.abort, r.Program.value) with
          | None, Some v -> Program.hval_to_string v
          | Some msg, _ -> "aborted: " ^ msg
          | None, None -> "no value"
        in
        if got <> e.Registry.expected then
          raise
            (Run.Wrong_result
               (Printf.sprintf "%s: got %s, expected %s" e.Registry.name got
                  e.Registry.expected));
        let meta = p.Program.meta in
        let m =
          measurement c
            Program.(r.stats, r.gc_collections, r.gc_bytes_copied, meta)
        in
        Span.with_ "cache.write" (fun () ->
            Cache.store (Run.cache_key c)
              {
                Cache.p_stats = m.Run.stats;
                p_gc_collections = m.Run.gc_collections;
                p_gc_bytes_copied = m.Run.gc_bytes_copied;
                p_meta = meta;
              });
        (m, Program.plan_key p))
  in
  (* A cold process has observed no cycle counts, so [Run.run_many]
     orders its dispatch by source size. *)
  let ordered =
    Pool.longest_first
      ~weight:(fun c -> String.length c.Run.c_entry.Registry.source)
      missing
  in
  let measured =
    Span.with_ "pool.fanout" (fun () -> Pool.map ~jobs compute ordered)
  in
  List.iter2
    (fun c (m, _) -> Hashtbl.replace store (Run.matrix_key c) m)
    ordered measured;
  let lookup c =
    match Hashtbl.find_opt store (Run.matrix_key c) with
    | Some m -> m
    | None ->
        invalid_arg ("configuration not in the plan: " ^ Run.matrix_key c)
  in
  let rendered =
    List.map
      (fun a -> Span.with_ "render" (fun () -> a.Spec.a_render entries lookup))
      artifacts
  in
  let keys = Hashtbl.create 256 in
  List.iter (fun (_, k) -> Hashtbl.replace keys k ()) measured;
  ( rendered,
    {
      configs = List.length distinct;
      simulations = List.length measured;
      distinct_inputs = Hashtbl.length keys;
    } )

(* ---- [Cross.check]'s calls, re-enacted ---- *)

(* The calls [Cross.check] makes on a program that does not diverge:
   every cell, every opt level, every backend's compile, every engine's
   run of the first accepted image, and the host oracle where the
   reference engine's [`None] run ended in a value or a trap.  No
   verdict is derived here: the campaign's own [Cross.check] gives it,
   and the traced run checks that both passes did the same work by
   comparing the library's counters.  Must follow [Cross.check_cell]. *)

module Cross = Fuzz.Cross

(* Totals over every program the re-enactment compiles. *)
let object_words = ref 0
let checks_eliminated = ref 0

let reset () =
  object_words := 0;
  checks_eliminated := 0

(* [Program.compile] is [compile_frontend] of [analyze]; the two halves
   get their own spans. *)
let compile ~backend ~opt ~scheme ~support source =
  match
    let fe = Span.with_ "frontend" (fun () -> Program.analyze source) in
    Span.with_ "compile" (fun () ->
        Program.compile_frontend ~backend ~opt ~sizes:Fuzz.Gen.sizes ~scheme
          ~support fe)
  with
  | p ->
      let meta = p.Program.meta in
      object_words := !object_words + meta.Program.object_words;
      checks_eliminated := !checks_eliminated + meta.Program.checks_eliminated;
      Some p
  | exception
      ( Program.Error _ | Codegen.Error _ | Expand.Error _ | Sexp.Parse_error _
      | Invalid_argument _ ) ->
      None

(* [Program.run] is [load] + [Machine.run] + decoding (the plan store is
   off under fuzzing, so there is no flush); load and execution get
   their own spans, one name per engine.  True when the run ended in a
   value or a trap. *)
let run_engine ~fuel ~engine (p : Program.t) =
  let name = Machine.engine_name engine in
  match
    let m, _ =
      Span.with_ ("sim.load/" ^ name) (fun () -> Program.load ~fuel ~engine p)
    in
    (m, Span.with_ ("sim.exec/" ^ name) (fun () -> Machine.run m))
  with
  | m, Machine.Halted w -> (
      match Program.decode p m w with
      | _ -> true
      | exception Invalid_argument _ -> false)
  | _, Machine.Aborted _ -> true
  | exception (Machine.Out_of_fuel | Machine.Machine_error _ | Invalid_argument _)
    ->
      false

let check_cell ~fuel (m : Cross.matrix) ~scheme ~support source =
  let oracle = ref false in
  List.iter
    (fun (opt : Program.opt) ->
      let backends =
        match opt with
        | `None -> m.Cross.m_backends
        | `Checks -> List.filter (fun b -> b = `Incremental) m.Cross.m_backends
      in
      let compiled =
        List.map (fun b -> compile ~backend:b ~opt ~scheme ~support source) backends
      in
      match List.find_map Fun.id compiled with
      | None -> ()
      | Some p ->
          let ends =
            List.map (fun e -> run_engine ~fuel ~engine:e p) m.Cross.m_engines
          in
          if opt = `None then oracle := List.hd ends)
    m.Cross.m_opts;
  if support.Support.runtime_checking && !oracle then
    match Span.with_ "oracle" (fun () -> Oracle.run ~scheme source) with
    | _ -> ()
    | exception (Expand.Error _ | Sexp.Parse_error _) -> ()

let check ?(fuel = 40_000_000) (m : Cross.matrix) source =
  List.iter
    (fun (scheme, support) -> check_cell ~fuel m ~scheme ~support source)
    m.Cross.m_pairs
