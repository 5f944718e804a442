(** A [Domain.spawn]-based worker pool for the experiment matrix
    (OCaml 5 stdlib only).

    [map] preserves input order and exception behaviour: items are pulled
    off a shared atomic counter by [jobs] workers (the calling domain is
    one of them), results land in a per-index slot, and the first
    exception in input order is re-raised after all workers have joined —
    so [map ~jobs:1 f l] is observably [List.map f l].

    The pool is deliberately dumb: no work stealing, no futures, just a
    fan-out over an index range, because every task (one compile+simulate
    of a benchmark configuration) is seconds-coarse. *)

(* Number of workers used when [map] is not given an explicit [jobs]:
   set once by the CLI's [--jobs] flag.  1 (strictly serial) until
   then. *)
let default_jobs = ref 1

(* The recommended count, clamped to [1, 16]: every task is a
   seconds-coarse compile+simulate, so past ~16 workers the matrix
   (a few hundred cells at most) stops scaling while memory cost
   (an 8 MB host int array per 4 MiB of simulated memory, per
   in-flight task) keeps growing. *)
let recommended () = max 1 (min 16 (Domain.recommended_domain_count ()))

(** Clamp and install the default worker count; [jobs <= 0] means
    {!recommended}. *)
let set_default_jobs jobs =
  default_jobs := (if jobs <= 0 then recommended () else jobs)

(* Longest-job-first dispatch order: a stable sort by [weight],
   heaviest first.  With the pool pulling tasks off a shared counter,
   the makespan is tail-bound by whatever runs last — scheduling the
   big jobs first keeps the tail short (classic LPT list scheduling).
   Only the caller's input order changes; [map] still returns results
   in that (new) input order. *)
let longest_first ~weight items =
  List.stable_sort (fun a b -> compare (weight b : int) (weight a)) items

let map ?jobs f items =
  let jobs = match jobs with Some j -> j | None -> !default_jobs in
  let jobs = if jobs <= 0 then recommended () else jobs in
  match items with
  (* Inline fast path: a strictly serial map, or a single task, gains
     nothing from the counter/slot machinery — and a warm-cache run
     whose misses all dedup away should not pay any pool overhead on
     its (empty or singleton) remainder. *)
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs = 1 -> List.map f items
  | _ ->
  let tasks = Array.of_list items in
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (* Each slot is written by exactly one domain and read only
           after the join, so the plain array is race-free. *)
        results.(i) <- Some (try Ok (f tasks.(i)) with e -> Error e);
        go ()
      end
    in
    go ()
  in
  let spawned =
    List.init (min jobs n - 1 |> max 0) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join spawned;
  Array.to_list results
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error e) -> raise e
       | None -> assert false)
