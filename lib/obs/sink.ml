type stamp = { slot : int; lane : int; seq : int }

type t = {
  emit : stamp -> Event.t -> unit;
  close : unit -> unit;
  sync : unit -> int option;
}

let no_sync () = None

let make ?(close = fun () -> ()) ?(sync = no_sync) emit =
  { emit = (fun _ ev -> emit ev); close; sync }

let null = { emit = (fun _ _ -> ()); close = (fun () -> ()); sync = no_sync }

let deliver t stamp ev = t.emit stamp ev

let close t = t.close ()

let sync t = t.sync ()

let jsonl oc =
  make
    ~close:(fun () -> flush oc)
    ~sync:(fun () ->
      flush oc;
      (try Unix.fsync (Unix.descr_of_out_channel oc)
       with Unix.Unix_error _ | Sys_error _ -> ());
      Some (pos_out oc))
    (fun ev ->
      output_string oc (Event.to_jsonl ev);
      output_char oc '\n')

let ordered inner =
  (* Lane events buffer; the next main-lane event (or close) releases
     them in (slot, lane, seq) order. Delivery is already serialized by
     the Trace lock, so no extra mutex is needed here. *)
  let buffer : (stamp * Event.t) list ref = ref [] in
  let flush_buffer () =
    let compare_stamp (a, _) (b, _) =
      compare (a.slot, a.lane, a.seq) (b.slot, b.lane, b.seq)
    in
    List.iter
      (fun (stamp, ev) -> inner.emit stamp ev)
      (List.stable_sort compare_stamp (List.rev !buffer));
    buffer := []
  in
  {
    emit =
      (fun stamp ev ->
        if stamp.lane >= 0 then buffer := (stamp, ev) :: !buffer
        else begin
          flush_buffer ();
          inner.emit stamp ev
        end);
    close =
      (fun () ->
        flush_buffer ();
        inner.close ());
    sync =
      (fun () ->
        flush_buffer ();
        inner.sync ());
  }

let ring ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Obs.Sink.ring: capacity must be positive";
  let slots = Array.make capacity None in
  let next = ref 0 in
  let stored = ref 0 in
  let emit ev =
    slots.(!next) <- Some ev;
    next := (!next + 1) mod capacity;
    if !stored < capacity then incr stored
  in
  let events () =
    (* oldest first: start after the most recent write when full *)
    let start = if !stored < capacity then 0 else !next in
    List.init !stored (fun i ->
        match slots.((start + i) mod capacity) with
        | Some ev -> ev
        | None -> assert false)
  in
  (make emit, events)
