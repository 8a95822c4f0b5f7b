type t = {
  mutable a : int array;
  mutable len : int;
}

let create ?(capacity = 64) () = { a = Array.make (max 1 capacity) 0; len = 0 }

let length b = b.len

let push b x =
  if b.len = Array.length b.a then begin
    let g = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 g 0 b.len;
    b.a <- g
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

let insert b i x =
  push b x;
  Array.blit b.a i b.a (i + 1) (b.len - 1 - i);
  b.a.(i) <- x

let get b i = b.a.(i)

let clear b = b.len <- 0

let to_array b = Array.sub b.a 0 b.len
