(* The benchmark harness.

   Phase 1 regenerates every table and figure of the paper and prints
   them in the paper's layout (this is the reproduction output that
   EXPERIMENTS.md records).

   Phase 2 runs one Bechamel benchmark per table/figure: each measures
   the wall-clock cost of the kernel that regenerates that artifact (a
   representative slice, with the measurement cache out of the way),
   i.e. the simulator-plus-compiler throughput of this implementation.

   Phase 3 measures per-engine simulation throughput and writes
   BENCH_engines.json; [--engines-only] runs it alone. *)

open Bechamel
open Toolkit

(* --- Phase 1: regenerate the paper. --- *)

let print_all () =
  Fmt.pr "================================================================@.";
  Fmt.pr "Reproduction: Steenkiste & Hennessy, \"Tags and Type Checking in@.";
  Fmt.pr "LISP: Hardware and Software Approaches\" (ASPLOS 1987)@.";
  Fmt.pr "================================================================@.@.";
  (* One planner execution: the union of every artifact's matrix,
     deduplicated and fanned out once over the pool. *)
  let module Spec = Tagsim.Analysis.Spec in
  let module Planner = Tagsim.Analysis.Planner in
  List.iter
    (fun r ->
      if r.Spec.r_name = "ablations" then Fmt.pr "@.%s@." r.Spec.r_text
      else Fmt.pr "%s@." r.Spec.r_text)
    (Planner.plan Planner.artifacts)

(* --- Phase 2: Bechamel kernels. --- *)

(* One uncached compile+simulate of a benchmark under a configuration:
   the unit of work every experiment is built from. *)
let simulate ?(scheme = Tagsim.Scheme.high5)
    ?(support = Tagsim.Support.software) name =
  let entry = Tagsim.Benchmarks.find name in
  let program =
    Tagsim.Program.compile ~scheme ~support
      ~sizes:entry.Tagsim.Benchmarks.sizes entry.Tagsim.Benchmarks.source
  in
  let result = Tagsim.Program.run program in
  assert (result.Tagsim.Program.abort = None)

let chk = Tagsim.Support.with_checking Tagsim.Support.software

(* Each test is the kernel of the corresponding experiment, on a
   representative program (the full experiments iterate these kernels
   over all ten programs and more configurations). *)
let tests =
  [
    Test.make ~name:"table1-checking-delta-deduce"
      (Staged.stage (fun () ->
           simulate "deduce";
           simulate ~support:chk "deduce"));
    Test.make ~name:"figure1-tag-profile-boyer"
      (Staged.stage (fun () -> simulate ~support:chk "boyer"));
    Test.make ~name:"figure2-mask-elimination-comp"
      (Staged.stage (fun () ->
           simulate "comp";
           simulate ~support:Tagsim.Support.row1_hw "comp"));
    Test.make ~name:"table2-row7-frl"
      (Staged.stage (fun () ->
           simulate
             ~support:(Tagsim.Support.with_checking Tagsim.Support.row7)
             "frl"));
    Test.make ~name:"table3-compile-opt"
      (Staged.stage (fun () ->
           let entry = Tagsim.Benchmarks.find "opt" in
           ignore
             (Tagsim.Program.compile ~scheme:Tagsim.Scheme.high5
                ~support:Tagsim.Support.software
                entry.Tagsim.Benchmarks.source)));
    Test.make ~name:"garith-high6-rat"
      (Staged.stage (fun () ->
           simulate ~scheme:Tagsim.Scheme.high6 ~support:chk "rat"));
    Test.make ~name:"ablation-dedgc-pressure"
      (Staged.stage (fun () -> simulate "dedgc"));
  ]

(* OLS ns/run estimates for one test, as (name, ns option) pairs. *)
let analyze_one test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let tbl = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name result acc ->
      let ns =
        match Analyze.OLS.estimates result with
        | Some [ t ] -> Some t
        | _ -> None
      in
      (name, ns) :: acc)
    tbl []
  (* [Analyze.all] hands back a hash table; sort so the report's row
     order is stable across processes. *)
  |> List.sort compare

let benchmark () =
  Fmt.pr "@.Bechamel kernels (wall-clock per regeneration kernel):@.";
  List.iter
    (fun test ->
      List.iter
        (fun (name, ns) ->
          match ns with
          | Some t -> Fmt.pr "  %-44s %10.2f ms/run@." name (t /. 1e6)
          | None -> Fmt.pr "  %-44s (no estimate)@." name)
        (analyze_one test))
    tests

(* --- Phase 3: engine throughput, reference vs fused vs traced. ---

   Every registry program (full checking: software type checks,
   generic-arithmetic traps and the GC), pre-compiled once and
   simulated under each engine.  All engines produce bit-identical
   statistics (test/suite_engines.ml), so any wall-clock gap is pure
   dispatch and accounting overhead.  Reported as simulated MIPS —
   retired simulated instructions per wall-clock second — and recorded
   in BENCH_engines.json alongside the traced/fused speedup. *)

let engine_programs =
  List.map
    (fun (e : Tagsim.Benchmarks.entry) -> e.Tagsim.Benchmarks.name)
    (Tagsim.Benchmarks.all ())

let engines =
  List.map
    (fun e -> (e, Tagsim.Machine.engine_name e))
    Tagsim.Machine.engine_all

let prepare_program name =
  let entry = Tagsim.Benchmarks.find name in
  let program =
    Tagsim.Program.compile ~scheme:Tagsim.Scheme.high5 ~support:chk
      ~sizes:entry.Tagsim.Benchmarks.sizes entry.Tagsim.Benchmarks.source
  in
  let result = Tagsim.Program.run program in
  assert (result.Tagsim.Program.abort = None);
  (program, Tagsim.Stats.executed_insns result.Tagsim.Program.stats)

(* One OLS ns/run estimate for one engine on one pre-compiled
   program. *)
let estimate_engine program engine ename =
  let test =
    Test.make ~name:ename
      (Staged.stage (fun () -> ignore (Tagsim.Program.run ~engine program)))
  in
  match analyze_one test with (_, ns) :: _ -> ns | [] -> None

type engine_run = { e_name : string; ns : float; mips : float }

let engine_benchmark () =
  let rows =
    List.map
      (fun pname ->
        let program, insns = prepare_program pname in
        (* Best of three independent OLS estimates per engine, taken in
           interleaved rounds (every engine once per round) so slow
           drift — thermal, frequency scaling, background load — hits
           every engine alike instead of whichever happens to be
           measured last. *)
        let best = Hashtbl.create 8 in
        for _round = 1 to 3 do
          List.iter
            (fun (engine, ename) ->
              match estimate_engine program engine ename with
              | Some ns -> (
                  match Hashtbl.find_opt best ename with
                  | Some b when b <= ns -> ()
                  | _ -> Hashtbl.replace best ename ns)
              | None -> ())
            engines
        done;
        let runs =
          List.filter_map
            (fun (_, ename) ->
              Option.map
                (fun ns ->
                  {
                    e_name = ename;
                    ns;
                    mips = float_of_int insns *. 1e3 /. ns;
                  })
                (Hashtbl.find_opt best ename))
            engines
        in
        (pname, insns, runs))
      engine_programs
  in
  List.iter
    (fun (pname, _, runs) ->
      Fmt.pr "@.Engine throughput (%s, high5, full checking):@." pname;
      List.iter
        (fun { e_name; ns; mips } ->
          Fmt.pr "  %-12s %10.2f ms/run  %8.2f simulated MIPS@." e_name
            (ns /. 1e6) mips)
        runs)
    rows;
  let mips_of runs name =
    List.find_opt (fun r -> r.e_name = name) runs
    |> Option.map (fun r -> r.mips)
  in
  let oc = open_out "BENCH_engines.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"unit\": \"simulated MIPS (retired simulated instructions \
       per wall-clock second)\",\n";
  out "  \"benchmarks\": [\n";
  List.iteri
    (fun i (pname, insns, runs) ->
      out "    {\n      \"program\": %S,\n      \"simulated_insns\": %d,\n"
        pname insns;
      out "      \"engines\": [\n";
      List.iteri
        (fun j { e_name; ns; mips } ->
          out
            "        { \"engine\": %S, \"ms_per_run\": %.3f, \
             \"simulated_mips\": %.2f }%s\n"
            e_name (ns /. 1e6) mips
            (if j = List.length runs - 1 then "" else ","))
        runs;
      out "      ]";
      (match (mips_of runs "traced", mips_of runs "fused") with
      | Some t, Some f when f > 0.0 ->
          out ",\n      \"traced_over_fused\": %.2f" (t /. f)
      | _ -> ());
      out "\n    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Fmt.pr "@.Per-engine throughput written to BENCH_engines.json@."

let () =
  let jobs = ref 0 in
  let engines_only = ref false in
  let rec parse = function
    | [] -> ()
    | ("--jobs" | "-j") :: n :: rest ->
        jobs := int_of_string n;
        parse rest
    | arg :: rest
      when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
        jobs := int_of_string (String.sub arg 7 (String.length arg - 7));
        parse rest
    | "--engines-only" :: rest ->
        engines_only := true;
        parse rest
    | _ :: rest -> parse rest
  in
  Tagsim.Analysis.Cache.set_enabled true;
  parse (List.tl (Array.to_list Sys.argv));
  Tagsim.Analysis.Pool.set_default_jobs !jobs;
  if !engines_only then engine_benchmark ()
  else begin
    print_all ();
    benchmark ();
    engine_benchmark ()
  end
