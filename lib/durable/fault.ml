(* Fault injection for the durability layer.

   Every byte the durability layer writes (containers, WAL headers, WAL
   records) flows through {!output}, so a test — or the
   [WTRIE_FAULT_CRASH_AFTER] environment knob used by the CI smoke test
   — can arm a byte budget after which the process behaves as if it
   crashed mid-write: the allowed prefix reaches the file (a torn
   write), then {!Injected_crash} is raised and every further durable
   write fails the same way.  Recovery code paths never write through
   this module's budget accounting twice: the budget is global, which is
   exactly the "whole process dies" model the harness wants. *)

exception Injected_crash of string

(* Called with the fault message just before {!Injected_crash} is
   raised.  The tiered store (which, unlike this library, links
   [wt_obs]) points it at the flight recorder so the crash marker lands
   in the ring before the process unwinds; a ref keeps [wt_durable]
   dependency-light. *)
let crash_hook : (string -> unit) ref = ref (fun _ -> ())
let set_crash_hook f = crash_hook := f

(* [None] = disarmed; [Some b] = b more bytes may reach disk. *)
let budget = ref None

(* [Some e]: the next {!fsync} fails with errno [e]. *)
let fsync_error : Unix.error option ref = ref None

let arm_crash_after_bytes n = budget := Some (max 0 n)

let disarm () =
  budget := None;
  fsync_error := None

let armed () = !budget <> None

let arm_from_env () =
  match Sys.getenv_opt "WTRIE_FAULT_CRASH_AFTER" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> arm_crash_after_bytes n
      | _ -> ())
  | None -> ()

let output oc s pos len =
  match !budget with
  | None -> output_substring oc s pos len
  | Some b when len <= b ->
      budget := Some (b - len);
      output_substring oc s pos len
  | Some b ->
      (* Torn write: only the first [b] bytes reach the file, then the
         "process" dies.  Flush so the partial bytes are really there,
         as they would be after a kernel write of the short count. *)
      output_substring oc s pos b;
      flush oc;
      budget := Some 0;
      let msg =
        Printf.sprintf "injected crash: torn write (%d of %d bytes reached the file)" b
          len
      in
      !crash_hook msg;
      raise (Injected_crash msg)

let output_string oc s = output oc s 0 (String.length s)

(* A failed fsync is reported, never swallowed: after one, the kernel
   may already have dropped the dirty pages, so the caller must not
   acknowledge what it wrote (Rebello et al., ATC 2020).  Tests make the
   next fsync fail with a chosen errno. *)
let fail_next_fsync e = fsync_error := Some e

let fsync fd =
  match !fsync_error with
  | Some e ->
      fsync_error := None;
      raise (Unix.Unix_error (e, "fsync", "injected"))
  | None -> Unix.fsync fd
