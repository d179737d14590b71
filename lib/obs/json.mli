(** Minimal JSON tree with a printer and a parser.

    The observability exporters emit JSON Lines; the CI tooling and the
    tests parse them back.  Only what those need is implemented — no
    streaming, no unicode escapes beyond [\uXXXX] pass-through — but
    printing and parsing round-trip for every value the exporters can
    produce.  Kept dependency-free on purpose: the container pins the
    package set, so we cannot lean on yojson. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Non-finite floats become [null],
    keeping every emitted line valid JSON. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing garbage is an error.  Numbers with a
    fraction or exponent parse as [Float], others as [Int]. *)

(** Accessors for tests and tooling; all total. *)

val member : string -> t -> t option
(** First binding of the name in an [Obj]; [None] otherwise. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both convert. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
