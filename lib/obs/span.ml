type t = { id : int; parent : int }

let none = -1

type allocator = { mutable next : int }

let allocator () = { next = 0 }

let issue a ~parent =
  let id = a.next in
  a.next <- id + 1;
  { id; parent }

let root a = issue a ~parent:none
let id s = s.id
