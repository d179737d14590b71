type t = int

let width = 62

let of_int i =
  if i < 0 then invalid_arg "Bitkey.of_int: negative";
  i

let to_int k = k
let compare = Int.compare
let equal = Int.equal
let random rng = Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2)

let bit k i =
  if i < 0 || i >= width then invalid_arg "Bitkey.bit: index out of range";
  k lsr (width - 1 - i) land 1 = 1

(* The leading zeros of the XOR, found by halving: 62 bits need six
   steps, where a bit loop takes one per shared bit. *)
let common_prefix_length a b =
  let x = a lxor b in
  if x = 0 then width
  else begin
    let x = ref x and top = ref 0 in
    if !x lsr 32 <> 0 then begin
      x := !x lsr 32;
      top := 32
    end;
    if !x lsr 16 <> 0 then begin
      x := !x lsr 16;
      top := !top + 16
    end;
    if !x lsr 8 <> 0 then begin
      x := !x lsr 8;
      top := !top + 8
    end;
    if !x lsr 4 <> 0 then begin
      x := !x lsr 4;
      top := !top + 4
    end;
    if !x lsr 2 <> 0 then begin
      x := !x lsr 2;
      top := !top + 2
    end;
    if !x lsr 1 <> 0 then top := !top + 1;
    width - 1 - !top
  end

let xor_distance a b = a lxor b

let prefix k ~len =
  if len < 0 || len > width then invalid_arg "Bitkey.prefix: bad length";
  if len = 0 then 0 else k land (lnot 0 lsl (width - len)) land max_int

let matches_prefix k ~prefix:p ~len = common_prefix_length k p >= len || len = 0

let flip_bit k i =
  if i < 0 || i >= width then invalid_arg "Bitkey.flip_bit: index out of range";
  k lxor (1 lsl (width - 1 - i))

let to_bits k ~len =
  if len < 0 || len > width then invalid_arg "Bitkey.to_bits: bad length";
  String.init len (fun i -> if bit k i then '1' else '0')

let of_bits s =
  let n = String.length s in
  if n > width then invalid_arg "Bitkey.of_bits: too long";
  let acc = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '0' -> acc := !acc lsl 1
      | '1' -> acc := (!acc lsl 1) lor 1
      | _ -> invalid_arg "Bitkey.of_bits: expected '0' or '1'")
    s;
  !acc lsl (width - n)

