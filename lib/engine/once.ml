type 'a t = { mu : Mutex.t; build : unit -> 'a; mutable value : 'a option }

let make build = { mu = Mutex.create (); build; value = None }

let force c =
  Mutex.lock c.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.mu)
    (fun () ->
      match c.value with
      | Some v -> v
      | None ->
          let v = c.build () in
          c.value <- Some v;
          v)

let is_forced c =
  Mutex.lock c.mu;
  let r = Option.is_some c.value in
  Mutex.unlock c.mu;
  r
