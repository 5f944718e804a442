(** Compile-time symbol table.

    Symbols are interned to dense indices; the table is emitted as the
    first static datum, so it sits at the fixed address
    {!Tagsim_runtime.Layout.symtab_base} and symbol items are compile-time
    constants.  Each cell holds a value (initially nil), a function-cell
    (the code address, when the symbol names a compiled function), a
    property list (initially nil) and the symbol's index. *)

module Buf = Tagsim_asm.Buf
module Scheme = Tagsim_tags.Scheme
module L = Tagsim_runtime.Layout

type t = {
  index : (string, int) Hashtbl.t;
  mutable names : string list; (* reversed *)
  mutable count : int;
  functions : (string, int) Hashtbl.t; (* symbols with a function cell, to arity *)
}

let create () =
  let t =
    {
      index = Hashtbl.create 64;
      names = [];
      count = 0;
      functions = Hashtbl.create 16;
    }
  in
  t

let intern t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> i
  | None ->
      let i = t.count in
      Hashtbl.replace t.index name i;
      t.names <- name :: t.names;
      t.count <- t.count + 1;
      i

(** Create a table with nil and t pre-interned at their fixed indices. *)
let with_builtins () =
  let t = create () in
  assert (intern t "nil" = L.sym_nil);
  assert (intern t "t" = L.sym_t);
  t

let mark_function t name ~arity = Hashtbl.replace t.functions name arity
let arity_of t name = Hashtbl.find_opt t.functions name
let count t = t.count
let names t = List.rev t.names

let name_of t idx =
  match List.nth_opt (names t) idx with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "no symbol with index %d" idx)

let find_opt t name = Hashtbl.find_opt t.index name

(** Emit the table.  Must be the first data emitted into [b], so that it
    lands at {!L.symtab_base}. *)
let emit_data t (scheme : Scheme.t) b =
  let nil_item = Scheme.encode_ptr scheme Scheme.Symbol (L.sym_addr L.sym_nil) in
  Buf.data b (Buf.Align 8);
  List.iteri
    (fun idx name ->
      let label = if idx = 0 then Some L.l_symtab else None in
      Buf.data ?label b (Buf.Word nil_item) (* value cell *);
      (match Hashtbl.find_opt t.functions name with
      | Some _ -> Buf.data b (Buf.Addr (L.fn_label name))
      | None -> Buf.data b (Buf.Word 0));
      Buf.data b (Buf.Word nil_item) (* property list *);
      (* Name-id word; for function symbols the arity rides in the high
         bits, where the [funcall] arity check reads it. *)
      let arity =
        match Hashtbl.find_opt t.functions name with Some a -> a | None -> 0
      in
      Buf.data b (Buf.Word ((arity lsl L.sym_arity_shift) lor idx)))
    (names t);
  Buf.word ~label:L.l_symtab_count b (count t)
