(* A real `wfc serve` daemon on a private Unix socket, and the one-request-
   per-connection client the benchmark drives it with (the way
   `wfc request` talks to it). *)

module Codec = Wfc_serve.Codec
module Pr = Wfc_serve.Protocol

type t = { pid : int; sock : string; log : string }

let request_timeout = 30.

exception Io of string

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Connect, send [payload], half-close, read to EOF. Every wait is capped by
   [request_timeout], so a wedged daemon surfaces as an error, not a hang. *)
let exchange sock payload =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try
            Unix.connect fd (Unix.ADDR_UNIX sock);
            write_all fd payload;
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
            let deadline = Unix.gettimeofday () +. request_timeout in
            let rec read () =
              let left = deadline -. Unix.gettimeofday () in
              if left <= 0. then raise (Io "no response within the timeout");
              match Unix.select [ fd ] [] [] left with
              | [], _, _ -> read ()
              | _ ->
                  let n = Unix.read fd chunk 0 (Bytes.length chunk) in
                  if n > 0 then begin
                    Buffer.add_subbytes buf chunk 0 n;
                    read ()
                  end
            in
            read ();
            Ok (Buffer.contents buf)
          with
          | Unix.Unix_error (e, f, _) -> Error (f ^ ": " ^ Unix.error_message e)
          | Io msg -> Error msg)

let binary_payload ~id req = Codec.frame (Codec.encode_request ~id req)

(* Decode one binary response frame. *)
let decode_frame bytes =
  match Codec.read_frame (Codec.reader_of_string bytes) with
  | Ok (Some payload) -> Codec.decode_response payload
  | Ok None -> Error "empty response"
  | Error msg -> Error msg

let call t ~id req =
  match exchange t.sock (binary_payload ~id req) with
  | Error msg -> Error msg
  | Ok bytes -> (
      match decode_frame bytes with
      | Ok (_, Pr.Error { code; message }) ->
          Error (Pr.error_code_name code ^ " " ^ message)
      | Ok (_, resp) -> Ok resp
      | Error msg -> Error msg)

let stats t =
  match call t ~id:0L Pr.Stats with
  | Ok (Pr.Stats_report rows) -> Ok rows
  | Ok _ -> Error "stats: unexpected response"
  | Error msg -> Error msg

let alive t = Option.is_none (Proc.poll t.pid)

(* Start `wfc serve` with one worker and wait (capped) until it answers a
   ping. *)
let start ~wfc ~dir ~name =
  let sock = Filename.concat dir (name ^ ".sock") in
  let log = Filename.concat dir (name ^ ".log") in
  let pid =
    Proc.spawn ~stdout:log wfc [ "serve"; "--socket"; sock; "--workers"; "1" ]
  in
  let t = { pid; sock; log } in
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait_ready () =
    if not (alive t) then Error "daemon exited during start-up"
    else if Sys.file_exists sock && call t ~id:0L Pr.Ping = Ok Pr.Pong then Ok t
    else if Unix.gettimeofday () > deadline then Error "daemon not ready in 20 s"
    else begin
      Unix.sleepf 0.002;
      wait_ready ()
    end
  in
  wait_ready ()

(* Always stops the daemon: [shutdown], a capped wait, then SIGKILL. *)
let stop t =
  ignore (exchange t.sock (binary_payload ~id:0L Pr.Shutdown));
  Proc.wait_capped ~cap:10. t.pid
