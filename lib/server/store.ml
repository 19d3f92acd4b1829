module Media = Secpol_journal.Media

type backend =
  | Memory of {
      media : (string, Media.t) Hashtbl.t;
      blobs : (string, string) Hashtbl.t;
    }
  | Dir of string

type t = backend

let memory () = Memory { media = Hashtbl.create 16; blobs = Hashtbl.create 16 }

(* Make [path] and its missing parents, and make their new entries
   durable: each directory made is fsynced into its parent. *)
let mkdir_durable path =
  List.iter (fun d -> Media.fsync_dir (Filename.dirname d)) (Media.mkdir_p path)

let dir root =
  mkdir_durable root;
  if not (Sys.is_directory root) then
    invalid_arg (Printf.sprintf "Store.dir: %s is not a directory" root);
  Dir root

let subkey parts =
  List.iter
    (fun p ->
      if p = "" || String.contains p '/' then
        invalid_arg (Printf.sprintf "Store.subkey: bad component %S" p))
    parts;
  String.concat "/" parts

(* Keys are slash-separated paths of safe components; the dir backend
   maps them to nested directories, media to a subdirectory, blobs to a
   ".bin" file. *)
let key_path root key = Filename.concat root key

let media t key =
  match t with
  | Memory { media; _ } -> (
      match Hashtbl.find_opt media key with
      | Some m -> m
      | None ->
          let m = Media.memory () in
          Hashtbl.add media key m;
          m)
  | Dir root -> Media.dir (key_path root key)

let has_media t key =
  match t with
  | Memory { media; _ } -> Hashtbl.mem media key
  | Dir root ->
      let path = key_path root key in
      Sys.file_exists path && Sys.is_directory path

let blob_path root key = key_path root key ^ ".bin"

let put t key data =
  match t with
  | Memory { blobs; _ } -> Hashtbl.replace blobs key data
  | Dir root ->
      let path = blob_path root key in
      mkdir_durable (Filename.dirname path);
      let tmp = path ^ ".tmp" in
      Media.write_file_sync tmp data;
      Sys.rename tmp path;
      Media.fsync_dir (Filename.dirname path)

let get t key =
  match t with
  | Memory { blobs; _ } -> Hashtbl.find_opt blobs key
  | Dir root ->
      let path = blob_path root key in
      if Sys.file_exists path then begin
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Some s
      end
      else None

let keys t ~prefix =
  let has_prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  match t with
  | Memory { media; blobs } ->
      let acc = ref [] in
      Hashtbl.iter (fun k _ -> if has_prefix k then acc := k :: !acc) media;
      Hashtbl.iter (fun k _ -> if has_prefix k then acc := k :: !acc) blobs;
      List.sort_uniq compare !acc
  | Dir root ->
      let rec walk rel acc =
        let path = if rel = "" then root else key_path root rel in
        if Sys.file_exists path && Sys.is_directory path then
          Array.fold_left
            (fun acc name ->
              let child = if rel = "" then name else rel ^ "/" ^ name in
              let cpath = key_path root child in
              if Sys.is_directory cpath then
                if Sys.file_exists (Filename.concat cpath Media.snapshot_file)
                   || Sys.file_exists (Filename.concat cpath Media.journal_file)
                then walk child (child :: acc)
                else walk child acc
              else if Filename.check_suffix name ".bin" then
                Filename.chop_suffix child ".bin" :: acc
              else acc)
            acc (Sys.readdir path)
        else acc
      in
      List.sort_uniq compare (List.filter has_prefix (walk "" []))
