(* The output gate: digests of every output a workload produces,
   compared against those recorded from a known-good build
   ([golden.txt], written by [main.exe record]).

   The file holds one entry per line, [<key> <value>]; blank lines and
   lines starting with '#' are ignored. A key names one output (an
   experiment's rendered text, a campaign cell, a fuzz report); the
   value is its MD5 digest, followed for experiments by the headline. *)

type t = (string, string) Hashtbl.t

let digest s = Digest.to_hex (Digest.string s)

let parse text : t =
  let g = Hashtbl.create 1024 in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.index_opt line ' ' with
        | Some i ->
          Hashtbl.replace g (String.sub line 0 i)
            (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | None -> failwith ("golden: malformed line: " ^ line))
    (String.split_on_char '\n' text);
  g

let load path = parse (In_channel.with_open_bin path In_channel.input_all)

(* Does output [key] match the recorded value? An unrecorded key never
   matches. *)
let matches (g : t) key value = Hashtbl.find_opt g key = Some value

let line key value = Printf.sprintf "%s %s" key value

(* Recorded value of an experiment: its rendered text's digest and its
   headline number, printed exactly. *)
let experiment_value ~text ~headline =
  Printf.sprintf "%s %s" (digest text)
    (match headline with Some h -> Printf.sprintf "%h" h | None -> "none")
