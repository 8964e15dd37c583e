(** The one stable hash used by every fleet component.

    Ring placement must agree across processes on a hash that is
    identical across runs, processes and OCaml versions —
    [Hashtbl.hash] guarantees none of that.  The hash only spreads keys
    and is never a content address (that is the store's SHA-256), so
    the fleet folds the first eight bytes of Stdlib's [Digest] (MD5)
    into a uniform non-negative 62-bit integer. *)

val stable_hash : string -> int
(** Deterministic, uniform, non-negative. *)
