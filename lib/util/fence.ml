external store_sc : int array -> int -> int -> unit = "twoplsf_store_sc"
  [@@noalloc]

external full : unit -> unit = "twoplsf_fence" [@@noalloc]
external register : unit -> bool = "twoplsf_membarrier_register" [@@noalloc]

let membarrier_ok = register ()

external membarrier : unit -> int = "twoplsf_membarrier" [@@noalloc]
