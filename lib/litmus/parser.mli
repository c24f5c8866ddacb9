(** Concrete syntax for litmus tests.

    {v
    test MPQ
    init X=0 Y=0
    thread P0 {
      st X, 1
      st Y, 1
    }
    thread P1 {
      ld a, Y
      if (a == 1) {
        cas.x86 X, 1, 2
      }
    }
    forbidden 1:a=1 /\ X=1
    v}

    Access mnemonics: [ld], [ld.acq], [ld.q], [ld.sc]; [st], [st.rel],
    [st.sc]; [cas.x86], [cas.tcg], [cas.amo]/[cas.lxsx] with optional
    [.a]/[.l] acquire/release suffixes (an optional destination register
    is written [cas.x86 r <- X, 0, 1]), and [xadd] / [xchg] with the
    same kind suffixes and one operand ([xadd.amo.a.l r <- X, 1]);
    [fence F] with the fence names
    of {!Axiom.Event.pp_fence} ([MFENCE], [DMB.FULL], [Frm], ...);
    register assignment [r := e].  Instructions are separated by
    newlines or [;]; [#] starts a line comment.  The final expectation
    is [allowed c] or [forbidden c] with [/\], [\/], [~], [loc=v] and
    [tid:reg=v].

    {!to_source} prints this exact syntax ([parse ∘ to_source] is the
    identity, property-tested). *)

exception Error of { line : int; msg : string }

val parse : string -> Ast.test

(** Parse a program without an expectation clause. *)
val parse_prog : string -> Ast.prog

val to_source : Ast.test -> string
val prog_to_source : Ast.prog -> string
