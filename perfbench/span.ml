(* Spans the benchmark records around its own calls into the library's
   public functions.  Nothing inside the library is instrumented: a span
   covers exactly one public call (or one benchmark-side grouping of
   them, such as a pool task), so the per-layer split is measured from
   outside.

   Recording is off until [start] is called, so the untraced passes pay
   one boolean test per call site and allocate nothing.  Spans are kept
   in memory (mutex-protected: pool workers record from their own
   domains) and aggregated once at the end. *)

type t = {
  name : string;
  t0 : float;
  t1 : float;
  domain : int;
  level : int; (* enclosing spans on the recording domain; 0 = root *)
}

let on = ref false
let mutex = Mutex.create ()
let recorded : t list ref = ref []

(* Nesting depth on the current domain; a worker domain starts at 0, so
   a pool task is a root of its own domain. *)
let depth = Domain.DLS.new_key (fun () -> 0)

let start () =
  Mutex.protect mutex (fun () -> recorded := []);
  on := true

let stop () = on := false

let with_ name f =
  if not !on then f ()
  else begin
    let d = Domain.DLS.get depth in
    Domain.DLS.set depth (d + 1);
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        Domain.DLS.set depth d;
        let s =
          { name; t0; t1; domain = (Domain.self () :> int); level = d }
        in
        Mutex.protect mutex (fun () -> recorded := s :: !recorded))
      f
  end

let all () = Mutex.protect mutex (fun () -> List.rev !recorded)

(* Total seconds and call count of the spans whose name satisfies [p]. *)
let total p =
  List.fold_left
    (fun (s, n) sp -> if p sp.name then (s +. sp.t1 -. sp.t0, n + 1) else (s, n))
    (0.0, 0) (all ())

let seconds_where p = fst (total p)
let seconds name = seconds_where (String.equal name)
let calls name = snd (total (String.equal name))

(* Seconds of the calling domain's timeline covered by its root spans:
   [1 - covered / wall] is the share of a traced pass that no span
   explains (benchmark glue, memo drops, result comparison). *)
let root_seconds () =
  let me = (Domain.self () :> int) in
  List.fold_left
    (fun acc sp ->
      if sp.level = 0 && sp.domain = me then acc +. sp.t1 -. sp.t0 else acc)
    0.0 (all ())

(* Per-name count, total and self seconds (total minus the direct
   children on the same domain), for the run's human-readable span
   table. *)
let table () =
  let spans = Array.of_list (all ()) in
  let self = Array.map (fun sp -> sp.t1 -. sp.t0) spans in
  (* Spans of one domain nest properly, so in start order a span's
     parent is the latest span one level up on its domain. *)
  let order = Array.init (Array.length spans) Fun.id in
  Array.stable_sort
    (fun i j ->
      compare
        (spans.(i).domain, spans.(i).t0, spans.(i).level)
        (spans.(j).domain, spans.(j).t0, spans.(j).level))
    order;
  let latest = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      let sp = spans.(i) in
      (match Hashtbl.find_opt latest (sp.domain, sp.level - 1) with
      | Some p when sp.level > 0 -> self.(p) <- self.(p) -. (sp.t1 -. sp.t0)
      | _ -> ());
      Hashtbl.replace latest (sp.domain, sp.level) i)
    order;
  let rows = Hashtbl.create 16 in
  Array.iteri
    (fun i sp ->
      let n, tot, slf =
        Option.value (Hashtbl.find_opt rows sp.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace rows sp.name (n + 1, tot +. sp.t1 -. sp.t0, slf +. self.(i)))
    spans;
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) rows []
  |> List.sort compare
