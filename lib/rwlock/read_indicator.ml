let bits_per_word = 32

type t = {
  words_per_thread : int;
  words : int array; (* [tid * words_per_thread + w / 32] *)
}

let create ~num_locks =
  if num_locks <= 0 || num_locks mod bits_per_word <> 0 then
    invalid_arg "Read_indicator.create: num_locks must be a positive multiple of 32";
  let words_per_thread = num_locks / bits_per_word in
  {
    words_per_thread;
    words = Array.make (words_per_thread * Util.Tid.max_threads) 0;
  }

let word_index t tid w = (tid * t.words_per_thread) + (w lsr 5)
let bit w = 1 lsl (w land 31)

let arrive t ~tid w =
  let idx = word_index t tid w in
  Util.Fence.store_sc t.words idx (t.words.(idx) lor bit w)

let depart t ~tid w =
  let idx = word_index t tid w in
  t.words.(idx) <- t.words.(idx) land lnot (bit w)

let holds t ~tid w = t.words.(word_index t tid w) land bit w <> 0

let is_empty t ~self w =
  let hwm = Util.Tid.high_water () in
  let rec go tid =
    if tid >= hwm then true
    else if tid <> self && holds t ~tid w then false
    else go (tid + 1)
  in
  go 0

let iter_readers t ~self w f =
  let hwm = Util.Tid.high_water () in
  for tid = 0 to hwm - 1 do
    if tid <> self && holds t ~tid w then f tid
  done
