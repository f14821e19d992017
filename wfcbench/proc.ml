(* Child processes of the benchmark: spawn, bounded waits, peak RSS and CPU
   time from the kernel. Every child is reaped before the benchmark exits. *)

external wait4 : int -> bool -> int * int * int = "wfcbench_wait4"
external clk_tck : unit -> int = "wfcbench_clk_tck"

(* Pin this process, and every child it spawns afterwards, to one CPU; the
   CPU, or -1 when the run stays unpinned. *)
external pin_one_cpu : unit -> int = "wfcbench_pin_one_cpu"

type exit = { code : int;  (** exit status, or [-signal] *) maxrss_kb : int }

let live : int list ref = ref []

let spawn ?(stdout = "/dev/null") prog args =
  let out =
    Unix.openfile stdout [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null out out)
  in
  live := pid :: !live;
  pid

(* Exits already reaped, so a later wait on the same child still sees them. *)
let exits : (int, exit) Hashtbl.t = Hashtbl.create 8

let reaped pid (_, code, maxrss_kb) =
  live := List.filter (( <> ) pid) !live;
  let e = { code; maxrss_kb } in
  Hashtbl.replace exits pid e;
  e

let poll pid =
  match Hashtbl.find_opt exits pid with
  | Some e -> Some e
  | None -> (
      match wait4 pid true with 0, _, _ -> None | r -> Some (reaped pid r))

let wait pid =
  match Hashtbl.find_opt exits pid with
  | Some e -> e
  | None -> reaped pid (wait4 pid false)

(* Wait at most [cap] seconds, then SIGKILL: a wedged child costs the cap,
   never a hang. *)
let wait_capped ~cap pid =
  let deadline = Unix.gettimeofday () +. cap in
  let rec go () =
    match poll pid with
    | Some e -> e
    | None when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        go ()
    | None ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        wait pid
  in
  go ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait pid) with Unix.Unix_error _ -> ())
    !live

(* utime + stime of a live process, in seconds, from /proc/PID/stat. The
   command name may hold spaces, so fields are counted after its ')'. *)
let cpu_seconds pid =
  let line =
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  in
  let rest =
    let i = String.rindex line ')' in
    String.sub line (i + 2) (String.length line - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
  let ticks = int_of_string fields.(11) + int_of_string fields.(12) in
  float_of_int ticks /. float_of_int (clk_tck ())

(* ---- a private scratch directory inside the working directory ---------- *)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let root = ".wfcbench"

let mkdir_p path =
  List.fold_left
    (fun acc part ->
      let p = if acc = "" then part else Filename.concat acc part in
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      p)
    "" (String.split_on_char '/' path)
  |> ignore

(* Relative paths keep the daemon's socket path short whatever the checkout
   location (a Unix socket path is capped near 108 bytes). *)
let scratch_dir () =
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  remove_tree dir;
  mkdir_p dir;
  dir

let cleanup dir =
  kill_all ();
  remove_tree dir;
  try Unix.rmdir root with Unix.Unix_error _ -> ()
