(* The differential fuzzing subsystem: generator determinism, the
   shrinker, the campaign driver (against an injected synthetic
   divergence, so no engine needs breaking), a fixed-seed smoke
   campaign over the full engine x backend x opt matrix, and the
   regression corpus of shrunk counterexamples from the fuzzing
   sessions that built this harness — each pinned to the checked
   behavior the cross-config oracle now agrees on. *)

module Rng = Tagsim.Fuzz.Rng
module Gen = Tagsim.Fuzz.Gen
module Cross = Tagsim.Fuzz.Cross
module Shrink = Tagsim.Fuzz.Shrink
module Driver = Tagsim.Fuzz.Driver
module Sexp = Tagsim.Sexp
module Program = Tagsim.Program
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support

let chk = Support.with_checking Support.software

(* --- the seeded stream --- *)

let test_rng_determinism () =
  let draw seed = List.init 32 (fun _ -> Rng.int (Rng.create seed) 1000) in
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 32 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 32 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  Alcotest.(check bool)
    "different seeds differ" false
    (draw 1 = draw 2)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10);
    let w = Rng.range r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (w >= -5 && w <= 5)
  done

(* --- the generator --- *)

let test_gen_determinism () =
  let gen seed = Gen.render (Gen.program (Rng.create seed) ~max_size:60) in
  Alcotest.(check string) "same seed, same program" (gen 9) (gen 9);
  Alcotest.(check bool) "different seeds differ" false (gen 9 = gen 10)

(* Every generated program must parse, and almost every one must
   compile (the generator may overrun a compiler limit, but only
   rarely); and generated programs terminate by construction. *)
let test_gen_compilable () =
  let rng = Rng.create 1 in
  let compiled = ref 0 in
  for _ = 1 to 20 do
    let src = Gen.render (Gen.program rng ~max_size:60) in
    ignore (Sexp.parse_all src);
    match
      Program.compile ~sizes:Gen.sizes ~scheme:Scheme.high5 ~support:chk src
    with
    | _ -> incr compiled
    | exception Tagsim.Codegen.Error _ -> ()
    | exception Tagsim.Program.Error _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most programs compile (%d/20)" !compiled)
    true (!compiled >= 15)

(* --- the shrinker --- *)

(* Minimize while a marker atom survives: the shrinker must keep the
   predicate true at every accepted step and end much smaller. *)
let test_shrink_keeps_predicate () =
  let src =
    "(de h0 (n) (if (eq n 0) 0 (h0 (sub1 n))))\n\
     (de main () (let ((a (list 1 2 3)) (b (mkvect 5)))\n\
     (putv b 2 (quote poison)) (h0 12) (length a)))"
  in
  let prog = Sexp.parse_all src in
  let has_marker p =
    let rec node = function
      | Sexp.Sym "poison" -> true
      | Sexp.Sym _ | Sexp.Int _ -> false
      | Sexp.List l -> List.exists node l
    in
    List.exists node p
  in
  Alcotest.(check bool) "marker present initially" true (has_marker prog);
  let shrunk = Shrink.minimize ~check:has_marker prog in
  Alcotest.(check bool) "marker survives" true (has_marker shrunk);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk %d -> %d nodes" (Gen.size prog) (Gen.size shrunk))
    true
    (Gen.size shrunk < Gen.size prog / 2)

(* --- the campaign driver, against an injected divergence ---

   The acceptance bar for the whole pipeline: a synthetic "bug" (any
   program whose rendering mentions a vector build) must be caught and
   shrunk to a small reproducer, without actually breaking an engine. *)
let test_campaign_catches_injected_divergence () =
  let buggy prog =
    let src = Gen.render prog in
    let is_sub s =
      let n = String.length s and m = String.length src in
      let rec at i = i + n <= m && (String.sub src i n = s || at (i + 1)) in
      at 0
    in
    if is_sub "mkvect" then
      Cross.Diverge
        {
          Cross.d_scheme = Scheme.high5;
          d_support = chk;
          d_detail = "injected: mkvect miscompiled";
        }
    else Cross.Agree
  in
  let report =
    Driver.campaign ~check:buggy ~matrix:Cross.smoke ~seed:5 ~count:40
      ~max_size:80 ()
  in
  Alcotest.(check bool)
    "injected divergence caught" true
    (List.length report.Driver.r_counterexamples > 0);
  List.iter
    (fun cx ->
      (match buggy (Sexp.parse_all cx.Driver.cx_shrunk) with
      | Cross.Diverge _ -> ()
      | _ -> Alcotest.fail "shrunk program no longer reproduces");
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d nodes (<= 20)" cx.Driver.cx_nodes)
        true (cx.Driver.cx_nodes <= 20))
    report.Driver.r_counterexamples

let test_campaign_deterministic () =
  let run () =
    let r =
      Driver.campaign
        ~check:(fun p -> ignore (Gen.render p); Cross.Agree)
        ~matrix:Cross.smoke ~seed:77 ~count:30 ~max_size:60 ()
    in
    (r.Driver.r_generated, r.Driver.r_skipped)
  in
  Alcotest.(check (pair int int)) "same seed, same report" (run ()) (run ())

(* --- the fixed-seed smoke campaign ---

   25 real programs through the real oracle on the smoke matrix (all
   four engines, both backends, both opt levels, high5 + full software
   checking).  Any divergence here is a product bug. *)
let test_smoke_campaign () =
  let report =
    Driver.campaign ~matrix:Cross.smoke ~seed:20260808 ~count:25 ~max_size:70
      ()
  in
  List.iter
    (fun cx ->
      Alcotest.failf "fuzz smoke divergence (program %d): %s\nshrunk: %s"
        cx.Driver.cx_index cx.Driver.cx_detail cx.Driver.cx_shrunk)
    report.Driver.r_counterexamples;
  Alcotest.(check int) "generated" 25 report.Driver.r_generated

(* --- regression corpus ---

   Shrunk counterexamples from the campaigns that built this harness.
   Each one exposed a real defect; the sources are kept byte-for-byte
   (modulo alpha-renaming the generator's shadowed [nil] parameters)
   and must now agree across the full matrix. *)

let agree_on ?(matrix = Cross.full) what src () =
  match Cross.check matrix src with
  | Cross.Agree -> ()
  | Cross.Rejected -> Alcotest.failf "%s: rejected by every config" what
  | Cross.Diverge d -> Alcotest.failf "%s: still diverges: %s" what d.Cross.d_detail

(* Dynamic arity mismatch through a symbol's function cell: the machine
   used to jump straight into the callee with the wrong number of
   argument registers live and die on a wild memory fault (whose
   message embeds a layout-dependent pc, so the opt levels disagreed);
   the host oracle traps "arity".  Found by seed 42 on the smoke
   matrix. *)
let cx_funcall_zero_for_one = "(de h0 (x) (funcall (quote h0)))\n(de main () (h0 nil))"
let cx_funcall_one_for_zero = "(de h0 (x))\n(de main () (funcall (quote h0)))"
let cx_mapcar_arity = "(de h0 ())\n(de main () (mapcar (quote h0) (list nil)))"

(* Unbounded recursion overruns the stack into a wild fault; what
   happens after the overrun is image-layout-dependent, so the fault
   outcome is exempt from cross-image comparison (but still compared
   exactly engine-to-engine).  Shrunk from a decreasing-recursion
   helper whose decrement the shrinker deleted (seed 42). *)
let cx_stack_overrun = "(de h0 (x) (h0 x))\n(de main () (let ((y (h0 nil))) (get y y)))"

(* Recursion about 3,900 deep overruns the fuzzing stack (128 KiB),
   and the overrun surfaces as a checked abort ("type error", "arity")
   rather than a wild fault, where the host oracle, which has no stack
   limit, returns a value or traps.  The oracle leg now reruns a
   disagreeing image with an 8x stack before reporting it.  Found by
   seeds 803 (program 13) and 908 (program 127, shrunk) on the smoke
   matrix. *)
let cx_deep_recursion_value =
  "(de h0 (p0) (if (greaterp p0 0) (+ (car (quote (39))) (h0 (- p0 1))) \
   (unbox (- (makebox p0) p0))))\n\
   (de main () (let ((gi (+ (h0 3922) (min -3517 8388607))) (gl (quote \
   (42)))) (setq gvec (mkvect 3)) (setq gint 23) (let ((li (unbox (- \
   (makebox (* 8 -20)) 17))) (lv (mkvect 1))) (setq gany gl) (list gi li \
   (get (quote probe) (quote c))))))"

let cx_deep_recursion_trap =
  "(de h0 (p0) (+ (funcall (quote h1) p0) (h0 (- p0 1))))\n\
   (de h1 (p0) (remainder 0 p0))\n\
   (de main () (let () setq gint (let ((x (h0 3980))))))"

(* On hardware parallel-checking rows (pc-all), a failed tag check
   aborts with the machine's own error code; [Program.abort_message]
   only knew the software stubs' trap codes and printed a raw
   "abort 1" where the software rows and the host oracle say "type
   error".  Found by seed 7 on the full matrix. *)
let cx_hw_type_error = "(de main () (car nil))"
let cx_hw_type_error_assoc = "(de main () (assoc nil (list 0)))"

(* A product that wraps the 32-bit word can land back on a valid item
   bit-pattern — 65536 * 65536 wraps to 0 on every scheme, and on the
   low-tag schemes any wrap preserves the two low tag bits — so the
   machine returned a garbage value where the host oracle traps
   "arithmetic error".  There is no high-word multiply in the ISA;
   checked multiplies now verify the product by dividing it back.
   Found by seed 1234 on the full matrix (shrunk by hand from
   3 * -7 * 33554430, which only the low schemes miss). *)
let cx_mul_wrap_to_valid = "(de main () (let ((x (* 65536 65536))) x))"
let cx_mul_wrap_low = "(de main () (let ((x (* 3 (* -7 33554430)))) x))"

(* The boundary corner of the division-back check: -536870912 * -1
   wraps to the bit-pattern of the valid low-scheme item -2^29, and the
   quotient differs from the multiplicand only after the compare's own
   wrap — the exact-compare form must still catch it.  (The high
   schemes reject the literal outright.) *)
let cx_mul_wrap_corner = "(de main () (let ((x (* -536870912 -1))) x))"

(* Near-boundary products that must NOT trap on the low schemes (and
   must trap on the narrower high schemes): the check may not reject
   valid 30-bit products. *)
let cx_mul_big_ok = "(de main () (let ((x (* -16384 32767))) x))"

let test_arity_abort_message () =
  let p =
    Program.compile ~sizes:Gen.sizes ~scheme:Scheme.high5 ~support:chk
      cx_funcall_zero_for_one
  in
  let r = Program.run p in
  Alcotest.(check (option string)) "traps arity" (Some "arity") r.Program.abort

let test_hw_type_error_message () =
  let p =
    Program.compile ~sizes:Gen.sizes ~scheme:Scheme.low2
      ~support:(Support.with_checking Support.row7) cx_hw_type_error
  in
  let r = Program.run p in
  Alcotest.(check (option string))
    "hardware check reports type error" (Some "type error") r.Program.abort

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "rng-determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng-bounds" `Quick test_rng_bounds;
        Alcotest.test_case "gen-determinism" `Quick test_gen_determinism;
        Alcotest.test_case "gen-compilable" `Quick test_gen_compilable;
        Alcotest.test_case "shrink-keeps-predicate" `Quick
          test_shrink_keeps_predicate;
        Alcotest.test_case "campaign-injected-divergence" `Quick
          test_campaign_catches_injected_divergence;
        Alcotest.test_case "campaign-deterministic" `Quick
          test_campaign_deterministic;
        Alcotest.test_case "smoke-campaign" `Slow test_smoke_campaign;
        Alcotest.test_case "regression-funcall-arity-0for1" `Quick
          (agree_on "funcall-arity-0for1" cx_funcall_zero_for_one);
        Alcotest.test_case "regression-funcall-arity-1for0" `Quick
          (agree_on "funcall-arity-1for0" cx_funcall_one_for_zero);
        Alcotest.test_case "regression-mapcar-arity" `Quick
          (agree_on "mapcar-arity" cx_mapcar_arity);
        Alcotest.test_case "regression-stack-overrun" `Quick
          (agree_on "stack-overrun" cx_stack_overrun);
        Alcotest.test_case "regression-deep-recursion-value" `Quick
          (agree_on "deep-recursion-value" cx_deep_recursion_value);
        Alcotest.test_case "regression-deep-recursion-trap" `Quick
          (agree_on "deep-recursion-trap" cx_deep_recursion_trap);
        Alcotest.test_case "regression-hw-type-error" `Quick
          (agree_on "hw-type-error" cx_hw_type_error);
        Alcotest.test_case "regression-hw-type-error-assoc" `Quick
          (agree_on "hw-type-error-assoc" cx_hw_type_error_assoc);
        Alcotest.test_case "regression-mul-wrap-to-valid" `Quick
          (agree_on "mul-wrap-to-valid" cx_mul_wrap_to_valid);
        Alcotest.test_case "regression-mul-wrap-low" `Quick
          (agree_on "mul-wrap-low" cx_mul_wrap_low);
        Alcotest.test_case "regression-mul-wrap-corner" `Quick
          (agree_on "mul-wrap-corner" cx_mul_wrap_corner);
        Alcotest.test_case "regression-mul-big-ok" `Quick
          (agree_on "mul-big-ok" cx_mul_big_ok);
        Alcotest.test_case "arity-abort-message" `Quick
          test_arity_abort_message;
        Alcotest.test_case "hw-type-error-message" `Quick
          test_hw_type_error_message;
      ] );
  ]
