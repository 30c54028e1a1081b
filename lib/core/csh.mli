(** The common preferred shape function [csh] (Definition 2, Figures 2
    and 4) — the least upper bound of two ground shapes under the
    preferred shape relation (Lemma 1).

    Rules are matched in the paper's top-to-bottom order:
    (eq), (list), (bot), (null), the top rules (top-merge), (top-incl),
    (top-add), (num), (opt), (recd), and finally (top-any). Notably the
    top rules precede (opt), so merging a top with a nullable shape strips
    the nullable wrapper from the label ("as top shapes implicitly permit
    null values, we make the labels non-nullable using ⌊−⌋").

    Record merging implements the row-variable mechanism of Figure 3: when
    two same-named records disagree on their field sets, the minimal
    ground substitution for the row variables makes every one-sided field
    nullable (the [⌈−⌉] applied to [θ(ρᵢ)] in the paper).

    Three collection-merging disciplines are provided:

    - [`Core] implements the paper's rule (list) literally: the result is
      a homogeneous collection of the csh of all element shapes. This is
      the algebra for which Lemma 1 is proved and property-tested.
    - [`Hetero] (the default, what F# Data implements for JSON,
      Section 6.4) merges entries tag-wise like labelled tops and combines
      multiplicities; tags present on one side only have their
      multiplicity widened.
    - [`Xml] keeps collections in the single-entry form used for XML
      element bodies (Section 2.2: the children of [<doc>] are a
      collection of the labelled top [any<heading, p, image>], so that the
      user iterates over elements with optional members): element shapes
      from both sides are joined into one entry — a labelled top when the
      tags differ — and the multiplicity records whether an element is
      always present, optional, or repeated, driving the direct / option /
      list member of the provider (the [Root.Item : string] example of
      Section 6.3).

    Labelled tops built by [csh] are kept in a canonical form: primitive
    labels are saturated under {!join_primitives} across tag families
    (so a top never holds both [bit] and [bool], or [date] and
    [string]), and collection labels have exactly-one entries weakened
    to zero-or-one (a top implicitly permits null, and a null sample
    reads as an empty collection). This makes [csh] associative and
    commutative at the representation level (up to record field order),
    not merely up to ⊑-equivalence — which is what lets
    {!Infer.csh_tree} re-associate the fold freely. *)

type mode = [ `Core | `Hetero | `Xml ]

val csh : ?mode:mode -> Shape.t -> Shape.t -> Shape.t
(** Default mode is [`Hetero]. *)

val csh_all : ?mode:mode -> Shape.t list -> Shape.t
(** Fold [csh] over a list starting from bottom, as in Figure 3's
    [S(d1, ..., dn)]. [csh_all []] is [Shape.Bottom]. *)

val join_primitives : Shape.primitive -> Shape.primitive -> Shape.primitive option
(** The primitive join underlying rule (num) and the Section 6.2 lattice:
    [int ⊔ float = float], [bit ⊔ int = int], [bit ⊔ bool = bool],
    [bit ⊔ float = float], [date ⊔ string = string]; [None] when the only
    upper bound is a top (e.g. [int ⊔ bool]). *)
