(** Aligned plain-text tables for experiment output.

    The bench harness prints one table per reproduced figure; this
    module keeps that output readable and diff-stable. *)

type align = Left | Right

type 'row column = string * align * ('row -> string)
(** A header, its alignment, and the cell it shows for one row. *)

type t

val make : 'row column list -> 'row list -> t
(** One line per row, one cell per column: every line has the header's
    width by construction. *)

val render : t -> string
(** The full table with a header rule, ready for [print_string]. *)

val render_csv : t -> string
(** The same data as RFC-4180-style CSV (header row first; cells
    containing commas, quotes or newlines are quoted). *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)
