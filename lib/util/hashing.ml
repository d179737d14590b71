let prime = 0x100000001B3L
let offset_basis = 0xCBF29CE484222325L
let[@inline] step acc byte = Int64.mul (Int64.logxor acc (Int64.of_int byte)) prime

let fnv1a64 s =
  let acc = ref offset_basis in
  for i = 0 to String.length s - 1 do
    acc := step !acc (Char.code (String.unsafe_get s i))
  done;
  !acc

(* FNV's high bits avalanche poorly on short inputs, and Bitkey routing
   is MSB-first, so finalize with the splitmix64 mixer before taking the
   top bits. *)
let[@inline] finalize z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] to_key h = Bitkey.of_int (Int64.to_int (Int64.shift_right_logical (finalize h) 2))
let hash_to_key s = to_key (fnv1a64 s)

let combine fields =
  let buf = Buffer.create 64 in
  List.iter
    (fun f ->
      Buffer.add_string buf (string_of_int (String.length f));
      Buffer.add_char buf ':';
      Buffer.add_string buf f)
    fields;
  Buffer.contents buf

(* [combine ["key"; string_of_int i]] is ["3:key" ^ <digit count> ^ ":"
   ^ <digits>]: hash the constant prefix once, then feed the digit
   count and the digits arithmetically, most significant first. *)
let key_prefix = fnv1a64 "3:key"
let zero = Char.code '0'

let key_id i =
  if i < 0 then invalid_arg "Hashing.key_id: negative index";
  let digits = ref 1 and top = ref 1 in
  while i / !top >= 10 do
    incr digits;
    top := !top * 10
  done;
  let acc = ref key_prefix in
  if !digits >= 10 then acc := step !acc (zero + (!digits / 10));
  acc := step !acc (zero + (!digits mod 10));
  acc := step !acc (Char.code ':');
  let p = ref !top in
  while !p > 0 do
    acc := step !acc (zero + (i / !p mod 10));
    p := !p / 10
  done;
  to_key !acc
