(** Timing model of the IPDS hardware engine.

    Committed branches enqueue verify+update requests into a bounded
    request queue serviced in order (paper §5.4: "all requests are put in
    a request queue according to the order in which they are issued").
    The engine also owns the on-chip BSV/BCV/BAT stack buffers; when the
    active call chain's tables exceed the buffers, lower stack layers
    spill to protected memory, occupying the engine like any other
    request.  The CPU only stalls when the queue is full. *)

type t

val create : Config.t -> t

val on_branch : t -> cycle:float -> verify:bool -> bat_nodes:int -> float
(** Enqueue the requests for one committed branch at CPU time [cycle];
    returns the stall (in cycles) the CPU incurs, 0. when the queue has
    room. *)

val on_call : t -> cycle:float -> sizes:Ipds_core.Image.sizes -> unit
(** Push a function's tables onto the stacks, spilling as needed. *)

val on_return : t -> cycle:float -> unit

val on_context_switch : t -> cycle:float -> float
(** Switch the protected process out and back in: the top-of-stack swap
    (two transfers of [ctx_swap_bits]) is synchronous — the returned
    stall — while the remaining resident table bits stream through the
    engine in the background (paper §5.4: "lower layers of stacks are
    context switched in parallel with the execution of the new
    process"). *)

type stats = {
  verifies : int;
  updates : int;
  stall_cycles : float;
  spills : int;
  fills : int;
  detection_latency_sum : float;
  detection_latency_count : int;
  max_queue : int;
  context_switches : int;
  ctx_stall_cycles : float;
}

val stats : t -> stats
val avg_detection_latency : stats -> float
