type cls = Add | Mul | Div | Mem | Logic | Cmp

let all = [ Add; Mul; Div; Mem; Logic; Cmp ]

let delay = function Add -> 1 | Mul -> 3 | Div -> 16 | Mem -> 2 | Logic -> 1 | Cmp -> 1

let pipelined_unit = function Div -> false | Add | Mul | Mem | Logic | Cmp -> true

let occupancy cls = if pipelined_unit cls then 1 else delay cls

let unit_area = function
  | Add -> 520.
  | Mul -> 8200.
  | Div -> 29500.
  | Mem -> 5100.
  | Logic -> 210.
  | Cmp -> 340.

let name = function
  | Add -> "add"
  | Mul -> "mul"
  | Div -> "div"
  | Mem -> "mem"
  | Logic -> "logic"
  | Cmp -> "cmp"

type t = { cls : cls; deps : int list }

let op ?(deps = []) cls = { cls; deps }
