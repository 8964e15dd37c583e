(** Per-function BSV/BCV/BAT tables (paper §5.1–5.2), in the one flat
    form the compiler builds, the artifact ships and the checker runs.

    Slots are hash positions of branch PCs under a collision-free
    function-specific hash.  The BCV is an int-array bitset; the BAT is
    packed CSR row words over a packed node array — one row per
    (slot, direction), plus one extra row of entry actions applied when
    an activation starts — with the hash parameters inlined as plain
    ints, so verifying and updating a committed branch touches no list
    node and allocates nothing.  {!Encode} serializes the rows as the
    paper's linked lists ("the BAT table implements a link list");
    {!sizes} reports the exact bit cost of that layout, which is what
    Figure 8 measures (paper averages: BSV 34, BCV 17, BAT 393).

    Node words pack
    [(target_slot lsl 16) lor (keep_mask lsl 8) lor set_mask]: the two
    byte masks pre-resolve the 2-bit {!Status.to_code} write into slab
    byte [target_slot lsr 2], so applying a node is a constant-shift
    load/and/or/store.  Per-activation BSV slabs are seeded
    from [init_bsv], which merges the BCV into the 2-bit entries: code 3
    marks an unchecked slot, codes 0-2 are the statuses of checked
    slots — one slab read answers both "is this branch checked" and
    "what direction is expected". *)

type t = private {
  fname : string;
  shift1 : int;
  shift2 : int;
  space_bits : int;
  mask : int;  (** [space - 1] *)
  space : int;
  n_branches : int;
  bcv : int array;  (** bitset; slot [s] is bit [s land 31] of word [s lsr 5] *)
  rows : int array;
      (** packed CSR rows, length [2*space + 1]: word [i] is
          [(offset lsl 20) lor length] of row [i]'s slice of [nodes] —
          row [slot*2 + dir] per edge, row [2*space] for entry actions.
          One load gives the branch path a row's start and node count. *)
  nodes : int array;
      (** [(target_slot lsl 16) lor (keep_mask lsl 8) lor set_mask] *)
  init_bsv : Bytes.t;
      (** fresh-activation slab image: code 0 for checked slots, 3 for
          unchecked ones; 2 bits per slot, 4 slots per byte *)
}

val build :
  layout:Ipds_mir.Layout.t -> Ipds_correlation.Analysis.result -> t
(** The function's tables, straight from its analysis: {!Hash.find}
    over the branch PCs in branch order, the BCV from [checked], one row
    per committed edge and the entry row, entries in action-list order.
    When [edge_actions] lists a (branch, direction) twice, the last
    entry wins. *)

val hash : t -> Hash.params
(** Test seam: test_core and the list-table oracle rebuild an image's hash
    function.  The inlined hash parameters, as shipped. *)

type sizes = {
  bsv_bits : int;
  bcv_bits : int;
  bat_bits : int;
}

val sizes : t -> sizes
(** BSV: 2 bits/slot.  BCV: 1 bit/slot.  BAT: head pointers for
    [2*space + 1] rows plus nodes of (target-slot, 2-bit action, next
    pointer); pointer width is {!ptr_bits}.  O(1). *)

val ptr_bits : n_nodes:int -> int
(** Width of a serialized node pointer: [ceil log2 (n_nodes + 1)], at
    least 1. *)

val pp : Format.formatter -> t -> unit

val empty : t
(** A zero-branch placeholder (used to blank arena slots). *)

val slot_of_pc : t -> int -> int
(** The collision-free hash, inlined — no [Hash.params] load. *)

val checked : t -> int -> bool
(** Is [slot] set in the BCV? *)

val entry_row_index : t -> int

val node_word : target_slot:int -> code:int -> int
val node_slot : int -> int
val node_code : int -> int

val node_action : int -> Ipds_correlation.Action.t
(** The BAT action a node word installs. *)

val row_off : int -> int
val row_len : int -> int
(** Pack/unpack one [rows] word. *)

val validate : t -> unit
(** Structural sanity for decoded images (rows tile the node array
    exactly, node slots inside the hash space and marked in the BCV —
    the invariant the merged slab encoding relies on).  Raises
    [Invalid_argument]. *)

val make :
  fname:string ->
  hash:Hash.params ->
  n_branches:int ->
  bcv:int array ->
  row_off:int array ->
  nodes:int array ->
  t
(** Assemble (and {!validate}) an image from decoded artifact sections;
    [row_off] is the serialized CSR offset table (length [2*space + 2],
    final entry the sentinel), packed into [rows] here.  Raises
    [Invalid_argument] on a structurally broken image. *)
