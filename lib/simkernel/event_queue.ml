(* Structure-of-arrays binary min-heap.

   Times live in an unboxed [float array] and tie-breaking sequence
   numbers in an [int array], so every comparison during [sift_up] /
   [sift_down] touches flat memory and allocates nothing.  Payloads are
   kept in a uniform [Obj.t array] (created from a unit filler, so it is
   never a flat float array and the generic reads/writes below are
   sound); slots are overwritten with the filler as soon as an element
   leaves the heap so popped handlers — closures that may capture large
   simulation state — are not kept live by the queue.

   After warm-up (once the backing arrays have grown to the high-water
   mark of the simulation) [add], [pop_min] and [min_time] allocate
   nothing; [clear] keeps the capacity so a reused queue never
   re-grows. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

(* Filler for empty payload slots.  [Obj.repr ()] is an immediate, so
   writing it is cheap and it keeps nothing alive. *)
let nothing = Obj.repr ()

let create () =
  { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let size t = t.size
let capacity t = Array.length t.times

(* Strict heap order: earlier time wins, insertion order breaks ties. *)
let lt t i j =
  t.times.(i) < t.times.(j) || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- time;
  let seq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- seq;
  let payload = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- payload

let grow t =
  let cap = max 16 (2 * Array.length t.times) in
  let times = Array.make cap 0. in
  let seqs = Array.make cap 0 in
  let payloads = Array.make cap nothing in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && lt t l !smallest then smallest := l;
  if r < t.size && lt t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let add t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- Obj.repr payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i

let min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  t.times.(0)


let pop_min t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let payload = t.payloads.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.times.(0) <- t.times.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.payloads.(0) <- t.payloads.(last);
    t.payloads.(last) <- nothing;
    sift_down t 0
  end
  else t.payloads.(0) <- nothing;
  (Obj.obj payload : 'a)

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    Some (time, pop_min t)
  end

let clear t =
  (* Keep the backing arrays (capacity is the whole point of a reusable
     queue) but drop every payload reference. *)
  if t.size > 0 then Array.fill t.payloads 0 t.size nothing;
  t.size <- 0
