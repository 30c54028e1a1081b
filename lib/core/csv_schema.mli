(** Explicit CSV column schemas.

    F# Data's CsvProvider accepts a [Schema] static parameter that
    overrides the inferred column types — the escape hatch the paper's
    Section 6.1 alludes to for data sources where the user knows better
    than the samples. This module implements the core of that parameter:

    {v  "Temp=float, Date=string, Autofilled=bool?"  v}

    A schema is a comma-separated list of [column=type] overrides, where
    [type] is one of [bit0 bit1 bit bool int float string date], with an
    optional [?] suffix making the column optional (nullable). Columns not
    mentioned keep their inferred shape. Column names are matched
    case-insensitively; an override for an unknown column is an error, as
    is a duplicate override. *)

type t = (string * Shape.t) list
(** Overrides in declaration order: column name (as written in the
    schema) and the shape it forces. *)

val parse : string -> (t, string) result
(** Parse the schema string; the empty string is the empty schema. *)

val apply : t -> Shape.t -> (Shape.t, string) result
(** [apply overrides shape] rewrites the row-record fields of an inferred
    CSV collection shape. Errors when [shape] is not a CSV collection
    shape or an override names a column that does not exist. *)

val override : string -> Shape.t -> (Shape.t, string) result
(** [override schema shape] parses [schema] and applies it to [shape];
    the empty schema leaves [shape] as it is. *)

val infer_csv : ?schema:string -> string -> (Shape.t, string) result
(** Strict inference of a CSV sample ({!Infer.run}) with the overrides
    applied. *)
