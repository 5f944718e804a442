(* The typed tag-operation IR pipeline (lower -> optimize -> select).

   Three layers of evidence:
   - with optimization off, the lower+select path is byte-identical to
     the monolithic oracle for every scheme x named support row, on
     every distinct benchmark source (dedgc is deduce's source with a
     smaller heap, and sizes do not reach the image);
   - with check elimination on, every benchmark still computes its
     expected value under every scheme and total cycles never increase
     (and under high5/software+rtc the checking-attributed cycles
     strictly decrease on at least eight of the ten programs);
   - unit tests pin the tag-knowledge lattice: dominating checks are
     deleted, control-flow joins intersect knowledge, user calls kill
     globals but not spilled locals, allocation GC points kill
     neither, and type-predicate branches seed knowledge. *)

module B = Tagsim.Benchmarks
module Program = Tagsim.Program
module Image = Tagsim.Image
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support
module Stats = Tagsim.Stats
module Symtab = Tagsim.Symtab
module Expand = Tagsim.Expand
module Ast = Tagsim.Ast
module Tir = Tagsim.Tir
module Lower = Tagsim.Lower
module Checkelim = Tagsim.Checkelim

(* --- opt off: byte-identical to the monolithic oracle --- *)

let opt_off_differential name () =
  let fe = Program.analyze (B.find name).B.source in
  List.iter
    (fun scheme ->
      List.iter
        (fun (row, support) ->
          let mono =
            Program.compile_frontend ~backend:`Monolithic ~scheme ~support fe
          in
          let inc =
            Program.compile_frontend ~backend:`Incremental ~opt:`None ~scheme
              ~support fe
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s/%s byte-identical" name scheme.Scheme.name
               row)
            true
            (Image.equal mono.Program.image inc.Program.image))
        Support.all_named)
    Scheme.all

(* --- opt on: same results, cycles never increase --- *)

let chk_support = Support.with_checking Support.software

(* Checking-attributed cycles: what the elision artifact reports. *)
let added_cycles stats =
  Stats.tag_checking ~checking:true stats
  + Stats.generic_arith ~checking:true stats

let test_opt_on_differential () =
  let high5_decreases = ref 0 in
  List.iter
    (fun (entry : B.entry) ->
      let fe = Program.analyze entry.B.source in
      List.iter
        (fun scheme ->
          let what fmt =
            Printf.ksprintf
              (fun s ->
                Printf.sprintf "%s/%s %s" entry.B.name scheme.Scheme.name s)
              fmt
          in
          let base =
            Program.compile_frontend ~sizes:entry.B.sizes ~scheme
              ~support:chk_support fe
          in
          let opt =
            Program.compile_frontend ~opt:`Checks ~sizes:entry.B.sizes ~scheme
              ~support:chk_support fe
          in
          Alcotest.(check bool)
            (what "some checks eliminated")
            true
            (opt.Program.meta.Program.checks_eliminated > 0);
          let rb = Program.run base and ro = Program.run opt in
          Alcotest.(check (option string)) (what "no abort") None
            ro.Program.abort;
          Alcotest.(check string) (what "expected value") entry.B.expected
            (Program.hval_to_string (Option.get ro.Program.value));
          Alcotest.(check string)
            (what "same value as unoptimized")
            (Program.hval_to_string (Option.get rb.Program.value))
            (Program.hval_to_string (Option.get ro.Program.value));
          Alcotest.(check bool)
            (what "cycles never increase")
            true
            (Stats.total ro.Program.stats <= Stats.total rb.Program.stats);
          if
            scheme.Scheme.name = "high5"
            && added_cycles ro.Program.stats < added_cycles rb.Program.stats
          then incr high5_decreases)
        Scheme.all)
    (B.all ());
  Alcotest.(check bool)
    "high5: checking cycles strictly decrease on >= 8 of 10 programs" true
    (!high5_decreases >= 8)

(* --- the tag-knowledge lattice, pinned on tiny functions --- *)

(* Lower one definition from a source string (all definitions are
   registered for arity lookups, so the unit under test may call the
   others). *)
let lower_named src name =
  let defs = Expand.program src in
  let symtab = Symtab.with_builtins () in
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun (d : Ast.def) ->
      ignore (Symtab.intern symtab d.Ast.name);
      Symtab.mark_function symtab d.Ast.name
        ~arity:(List.length d.Ast.params);
      Hashtbl.replace funcs d.Ast.name (List.length d.Ast.params))
    defs;
  let d = List.find (fun (d : Ast.def) -> d.Ast.name = name) defs in
  Lower.def (Tagsim.Buf.create ()) symtab funcs d

let elided_in src name =
  let _, n = Checkelim.run (lower_named src name) in
  n

let check_elided what src name expected =
  Alcotest.(check int) what expected (elided_in src name)

let test_dominating_check () =
  (* The car's check proves x : Pair; the cdr's identical check on the
     same variable is redundant. *)
  check_elided "second list check deleted"
    "(de f (x) (cons (car x) (cdr x)))" "f" 1

let test_predicate_seeds_knowledge () =
  (* The pairp branch dominates the then-arm, so the car needs no
     check; the predicate branch itself must never be deleted. *)
  let src = "(de h (x) (if (pairp x) (car x) (quote nil)))" in
  check_elided "car check deleted under pairp" src "h" 1;
  let tf, _ = Checkelim.run (lower_named src "h") in
  let branches =
    List.length
      (List.filter
         (function Tir.Tybranch _ -> true | _ -> false)
         tf.Tir.f_ops)
  in
  Alcotest.(check bool) "predicate branch survives" true (branches >= 1)

let test_join_drops_one_sided_knowledge () =
  (* Only the then-arm checks x, so the merge point knows nothing and
     the final car keeps its check. *)
  check_elided "one-sided knowledge dropped at join"
    "(de j (x y) (progn (if y (car x) x) (car x)))" "j" 0

let test_join_keeps_common_knowledge () =
  (* Both arms check x : Pair, so the intersection at the merge point
     still proves the final car. *)
  check_elided "two-sided knowledge survives join"
    "(de j2 (x y) (progn (if y (car x) (cdr x)) (car x)))" "j2" 1

let test_call_kills_globals () =
  (* The setq'd constant proves the first car; the user call can write
     any global, so the second car's check must survive. *)
  check_elided "global knowledge killed across user call"
    "(de k2 (y) y) (de g1 () (progn (setq gg (quote (1 2))) (car gg) (k2 0) \
     (car gg)))"
    "g1" 1

let test_local_survives_call () =
  (* x is a register-cached local, spilled and reloaded around the
     call: its type survives where a global's would not. *)
  check_elided "local knowledge survives user call"
    "(de k2 (y) y) (de k (x) (progn (car x) (k2 x) (car x)))" "k" 1

let test_gc_point_kills_nothing () =
  (* cons may collect, but the copying collector preserves types:
     both the local's and the global's knowledge survive the
     allocation. *)
  check_elided "local knowledge survives GC point"
    "(de gc1 (x) (progn (car x) (cons 1 2) (car x)))" "gc1" 1;
  check_elided "global knowledge survives GC point"
    "(de g2 () (progn (setq gg (quote (1 2))) (car gg) (cons 1 2) (car gg)))"
    "g2" 2

let test_int_knowledge_downgrades_arith () =
  (* land2 checks both operands (the literal's check is itself proven);
     the proven x : Int then marks the following generic add's operand
     as known-integer. *)
  check_elided "int checks proven and arith downgraded"
    "(de a1 (x) (progn (land2 x 1) (plus2 x 2)))" "a1" 2

let test_comparison_seeds_int () =
  (* The comparison's operand check dominates both arms of the if. *)
  check_elided "comparison check seeds int knowledge"
    "(de c1 (x) (if (lessp x 1) (plus2 x 2) 0))" "c1" 1

let suite =
  [
    ( "tir",
      [
        Alcotest.test_case "dominating-check" `Quick test_dominating_check;
        Alcotest.test_case "predicate-branch" `Quick
          test_predicate_seeds_knowledge;
        Alcotest.test_case "join-one-sided" `Quick
          test_join_drops_one_sided_knowledge;
        Alcotest.test_case "join-two-sided" `Quick
          test_join_keeps_common_knowledge;
        Alcotest.test_case "call-kills-globals" `Quick test_call_kills_globals;
        Alcotest.test_case "local-survives-call" `Quick
          test_local_survives_call;
        Alcotest.test_case "gc-point-kills-nothing" `Quick
          test_gc_point_kills_nothing;
        Alcotest.test_case "arith-downgrade" `Quick
          test_int_knowledge_downgrades_arith;
        Alcotest.test_case "comparison-int" `Quick test_comparison_seeds_int;
        Alcotest.test_case "differential-deduce" `Slow
          (opt_off_differential "deduce");
        Alcotest.test_case "differential-rat" `Slow
          (opt_off_differential "rat");
        Alcotest.test_case "differential-opt" `Slow
          (opt_off_differential "opt");
        Alcotest.test_case "differential-boyer" `Slow
          (opt_off_differential "boyer");
        Alcotest.test_case "differential-brow" `Slow
          (opt_off_differential "brow");
        Alcotest.test_case "differential-trav" `Slow
          (opt_off_differential "trav");
        Alcotest.test_case "differential-inter" `Slow
          (opt_off_differential "inter");
        Alcotest.test_case "differential-comp" `Slow
          (opt_off_differential "comp");
        Alcotest.test_case "differential-frl" `Slow
          (opt_off_differential "frl");
        Alcotest.test_case "opt-on-differential" `Slow
          test_opt_on_differential;
      ] );
  ]
