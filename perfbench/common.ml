(* What the workloads share: arguments, the metric catalogue, the
   report they hand back, output, and small process and timing helpers. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

include Catalogue

(* What a workload hands back: operation counts and measured values
   by metric name. *)
type report = {
  attempted : int;
  failed : int;
  values : (string * float) list;
}

exception Broken of string

(* A failure of the benchmark itself (a wedged or crashed server, a
   missing binary): the run fails without a result. *)
let broken fmt = Printf.ksprintf (fun m -> raise (Broken m)) fmt

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Process CPU seconds: for the single-threaded embedded workloads this
   is the statement's time without what the host steals from the
   virtual CPUs, which comes in bursts and dominates run-to-run spread. *)
let cpu_time f =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

let sum = List.fold_left ( +. ) 0.0
let mean xs = if xs = [] then 0.0 else sum xs /. float_of_int (List.length xs)

(* Median, quartiles and tail in ms of a list of seconds, with the
   sample count, for the printed report. *)
let describe_ms name secs =
  match secs with
  | [] -> say "  %-22s no samples" name
  | [ x ] -> say "  %-22s %.3f ms (n=1)" name (1000.0 *. x)
  | _ ->
    let n = List.length secs in
    let q1, q2, q3 = Util.quartiles secs in
    let tail =
      match Util.tail_percentile n with
      | Some p when p > 50.0 ->
        Printf.sprintf ", p%g %.3f" p (1000.0 *. Util.percentile secs p)
      | _ -> ""
    in
    say "  %-22s p50 %.3f ms (q1 %.3f, q3 %.3f%s) (n=%d)" name (1000.0 *. q2)
      (1000.0 *. q1) (1000.0 *. q3) tail n

(* The tail figure of a latency sample in ms, or 0 when fewer than
   twenty samples leave no percentile with ten beyond it. *)
let tail_ms secs =
  match Util.tail_percentile (List.length secs) with
  | Some p -> 1000.0 *. Util.percentile secs p
  | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                           *)

(* The host runs in fast and slow spells of a minute or more (other
   tenants' memory and cache traffic) that move an allocation-heavy
   statement's CPU time by up to ~40% between runs, while a pure
   arithmetic loop barely moves. A fixed kernel owned by the benchmark —
   a hash-join-and-sum over boxed floats, the shape of the engine's own
   work — runs between statements and takes the same hit, so timings
   are reported scaled to the kernel's reference time. No change to the
   program moves the kernel. *)
let calibration_reference_s = 0.030

let calibration_edges =
  lazy
    (Array.init 120_000 (fun i -> ((i * 7919) + 13) mod 6_000),
     Array.init 120_000 (fun i -> ((i * 104_729) + 7) mod 6_000))

let calibrate () =
  let src, dst = Lazy.force calibration_edges in
  let (), s =
    cpu_time (fun () ->
        let rank = Hashtbl.create 6_000 in
        for v = 0 to 5_999 do
          Hashtbl.replace rank v (1.0 /. 6_000.0)
        done;
        let sums = Hashtbl.create 6_000 in
        for _ = 1 to 2 do
          Array.iteri
            (fun i s ->
              let r = 0.85 *. Hashtbl.find rank s in
              match Hashtbl.find_opt sums dst.(i) with
              | Some x -> Hashtbl.replace sums dst.(i) (x +. r)
              | None -> Hashtbl.replace sums dst.(i) r)
            src
        done;
        ignore (Sys.opaque_identity sums))
  in
  s

(* The factor that takes times measured beside [samples] (seconds of
   {!calibrate}) to the reference speed, printed with its base. *)
let speed_scale samples =
  let med = Util.median samples in
  let scale = calibration_reference_s /. med in
  say
    "  calibration kernel: median %.3f ms (n=%d); reported times are the \
     measured ones scaled by %.4f to its %g ms reference"
    (1000.0 *. med) (List.length samples) scale
    (1000.0 *. calibration_reference_s);
  scale

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> broken "%s has no VmHWM line" path
      in
      scan ())

(* CPU time the hypervisor stole from the virtual CPUs, as
   (steal, total) jiffies since boot. *)
let cpu_jiffies () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match
      String.split_on_char ' ' line
      |> List.filter (( <> ) "")
      |> List.tl
      |> List.map int_of_string
    with
    | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
      (steal, user + nice + system + idle + iowait + irq + softirq + steal)
    | _ -> (0, 0))
  | None | (exception _) -> (0, 0)

(* The share of all CPU time since [start] that the host stole,
   printed with its base. Steal comes in spells and stretches every
   wall-clock timing; process CPU time does not count it. On the server
   workload, which keeps about one of the two virtual CPUs busy, this
   share (rather than the share of busy time, about twice as large)
   matches the measured slowdown of reads. *)
let stolen_share (s0, b0) =
  let s1, b1 = cpu_jiffies () in
  let r = Util.ratio (float_of_int (s1 - s0)) (float_of_int (b1 - b0)) in
  say "  host steal during the measured phase: %s of the CPU time"
    (Util.ratio_to_string r);
  Util.ratio_value r

(* The benchmark's scratch space: a fresh directory inside the working
   tree, removed again by [remove_tree]. *)
let scratch_root = ".perfbench-run"

let scratch_path name =
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  Filename.concat scratch_root name

let fresh_dir tag =
  let dir =
    scratch_path
      (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ())
         (int_of_float (now () *. 1000.0) mod 1_000_000))
  in
  Sys.mkdir dir 0o755;
  dir

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Answer checks                                                       *)

(* Relative closeness; [tol] defaults to the engine-vs-reference
   tolerance the test suite uses. *)
let close ?(tol = 1e-6) a b =
  Float.abs (a -. b) <= tol *. (1.0 +. Float.abs a +. Float.abs b)

let mismatch fmt = Printf.ksprintf (fun m -> Error m) fmt
