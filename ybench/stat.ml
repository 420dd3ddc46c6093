(* Order statistics over samples. *)

(** [percentile xs p] — nearest-rank percentile ([p] in [0, 100]) of the
    samples; [nan] when there are none.  Does not modify [xs]. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 50.

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

(** Growable float buffer for samples collected on a hot path. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let length t = t.len
end

(** Latency samples tagged with the time they were due, so a percentile
    can be taken per time window. *)
module Series = struct
  type t = { lat : Buf.t; at : Buf.t }

  let create () = { lat = Buf.create (); at = Buf.create () }

  let add t ~at x =
    Buf.add t.lat x;
    Buf.add t.at at

  let length t = Buf.length t.lat
  let values t = Buf.to_array t.lat

  (** [windowed t ~width p] — the median, over consecutive windows of
      [width] seconds, of each window's [p]-th percentile.  One stall then
      moves one window's figure instead of the whole run's tail. *)
  let window_percentiles t ~width p =
    let lat = Buf.to_array t.lat and at = Buf.to_array t.at in
    let n = Array.length lat in
    if n = 0 then [||]
    else begin
      let t0 = Array.fold_left Float.min infinity at in
      let buckets = Hashtbl.create 16 in
      Array.iteri
        (fun i x ->
          let k = int_of_float ((at.(i) -. t0) /. width) in
          let b =
            match Hashtbl.find_opt buckets k with
            | Some b -> b
            | None ->
              let b = Buf.create () in
              Hashtbl.add buckets k b;
              b
          in
          Buf.add b x)
        lat;
      (* a trailing partial window is dropped when full ones exist *)
      let full = Hashtbl.fold (fun _ b acc -> max acc (Buf.length b)) buckets 0 in
      Hashtbl.fold
        (fun k b acc ->
          if Buf.length b * 2 >= full then (k, percentile (Buf.to_array b) p) :: acc else acc)
        buckets []
      |> List.sort compare |> List.map snd |> Array.of_list
    end

  (** [windowed t ~width ~q p] — the [q]-th percentile, across windows of
      [width] seconds, of each window's [p]-th percentile. *)
  let windowed t ~width ~q p = percentile (window_percentiles t ~width p) q
end

(** [rate_blocks times ~k] — for each consecutive block of [k] events
    (by time), [k] divided by the time the block took: throughput samples
    that are not quantised by a fixed window. *)
let rate_blocks times ~k =
  let s = Array.copy times in
  Array.sort compare s;
  let n = Array.length s in
  if k < 1 || n <= k then [||]
  else
    Array.init ((n - 1) / k) (fun b ->
        float_of_int k /. (s.((b + 1) * k) -. s.(b * k)))
