(** Qemu-style runtime helpers and host-library bindings, registered on
    the Arm machine:

    - [helper_syscall]: user-mode syscall passthrough (exit, write);
    - [helper_cmpxchg_gcc9] / [helper_cmpxchg_gcc10], [helper_xadd_*]
      and [helper_xchg_*]: the RMW helpers built on GCC atomics — an
      LDAXR/STLXR pair vs a CASAL (§3.1) — each charging the cycles of
      its lowering's {!Mapping.Schemes.rmw_sequence};
    - [sf_add] … [sf_sqrt]: softfloat emulation of SSE scalar doubles;
    - every {!Linker.Hostlib} function, for translated [Host_call]s. *)

(** Extra model cycles for one softfloat operation (on top of the
    helper-call round trip). *)
val softfloat_cycles : int

(** [register_all ?on_clone ?inject shared] — [on_clone ~entry ~arg]
    implements the clone syscall (56): spawn a guest thread at [entry]
    with RDI=[arg], returning its tid.  [?inject] enables the
    [Host_call] fault-injection site on every host-library binding
    (the call raises a [Link_fault] instead of executing). *)
val register_all :
  ?on_clone:(entry:int64 -> arg:int64 -> int64) ->
  ?inject:Inject.t ->
  Arm.Machine.shared ->
  unit
