(** Dead code elimination.

    Two safe strategies combined:
    - a pure op writing a block-local temp that is never read anywhere in
      the block is removed;
    - in straight-line segments (no labels/branches), a pure op writing a
      global that is overwritten before any read or block exit is
      removed.

    Loads count as pure for deadness (an unread guest load may be
    removed; read elimination is sound in the TCG model, §5.4). *)

(** Rewrite the working copy in place. *)
val rewrite : Work.t -> unit
