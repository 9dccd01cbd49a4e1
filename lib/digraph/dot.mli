(** Graphviz DOT export. *)

val to_string :
  ?name:string ->
  ?vertex_attrs:(Digraph.vertex -> (string * string) list) ->
  ?arc_attrs:(Digraph.arc -> (string * string) list) ->
  vertex_name:(Digraph.vertex -> string) ->
  ('v, 'a) Digraph.t ->
  string
(** [to_string ~vertex_name g] renders [g] in DOT syntax. [vertex_attrs] and
    [arc_attrs] supply extra attribute pairs (e.g. [("label", "d=3")]);
    attribute values are quoted and escaped. *)

