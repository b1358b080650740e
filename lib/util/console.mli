(** Shared console glyph rendering for instruction-clock series: the
    sparkline resampler used by the timeline summary and the drift and
    relayout tables. *)

val spark_width : int
(** Default sparkline width in glyph cells (60). *)

val spark : ?width:int -> [ `Sum | `Max ] -> int array -> string
(** Resample [values] to at most [width] buckets and render one block glyph
    per bucket, scaled to the bucket maximum.  [`Sum] buckets add their
    values (total work in the bucket's span — delta series); [`Max] buckets
    keep the peak (level series survive downsampling).  Empty input renders
    as [""]. *)
