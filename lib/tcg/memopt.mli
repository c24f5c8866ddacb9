(** Redundant memory access elimination, implementing the verified
    Figure-10 rules at the IR level.  Which fences each rule may cross
    comes from the crossing table, {!Mapping.Transform.crossable}:

    - RAW / F-RAW: a load from an address just stored to is forwarded
      ([Mov] from the stored temp); allowed across [Fsc]/[Fww] fences.
    - RAR / F-RAR: a repeated load is forwarded from the previous load;
      allowed across [Frm]/[Fww] fences.
    - WAW / F-WAW: an overwritten store is deleted; allowed across
      [Frm]/[Fww] fences — and blocked when a non-forwarded load of the
      same address intervenes.

    Any other fence kind, helper call, atomic, or control-flow point
    conservatively kills tracking (this is what keeps the pass sound on
    code containing [Fmr]/[Fwr]; see the paper's FMR example).
    Addresses are tracked as (base temp, base version, offset): same
    base/version with different offsets cannot alias; different bases
    are conservatively treated as aliasing. *)

val run : Op.t list -> Op.t list
