module Interner = Extract_util.Interner
module Arraylist = Extract_util.Arraylist
module Xml = Extract_xml.Types
module Parser = Extract_xml.Parser

type node = int

type int_arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type char_arr = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Texts come in two shapes: freshly built documents hold one string per
   node ("" for elements); mapped snapshots hold a single flat blob with
   an offset table and slice it on demand. Element slices are empty, so
   both shapes answer identically. *)
type text_store =
  | Strings of string array
  | Blob of {
      offsets : int_arr; (* node_count + 1 entries *)
      blob : char_arr;
    }

type t = {
  dtd : Extract_xml.Dtd.t option;
  dtd_source : string option; (* original internal subset, for persistence *)
  tags : Interner.t;
  kinds : Bytes.t;          (* 0 = element, 1 = text *)
  tag : int_arr;            (* tag id, -1 for text nodes *)
  parent : int_arr;         (* -1 for the root *)
  depth : int_arr;
  size : int_arr;           (* subtree size in nodes, including self *)
  texts : text_store;
  element_count : int;
}

let ba_of_array (a : int array) : int_arr =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.unsafe_set b i v) a;
  b

let ba_to_array (b : int_arr) : int array =
  Array.init (Bigarray.Array1.dim b) (fun i -> Bigarray.Array1.unsafe_get b i)

let node_count t = Bigarray.Array1.dim t.tag

let check t n =
  if n < 0 || n >= node_count t then
    invalid_arg (Printf.sprintf "Document: node %d out of range [0,%d)" n (node_count t))

let text_at t n =
  match t.texts with
  | Strings a -> a.(n)
  | Blob { offsets; blob } ->
    let off = offsets.{n} and stop = offsets.{n + 1} in
    String.init (stop - off) (fun i -> Bigarray.Array1.unsafe_get blob (off + i))

(* Flattening: first convert XML attributes to leaf children, then a
   two-pass walk (count, fill) to allocate exact-size arrays. *)

let rec attrs_to_children (node : Xml.t) : Xml.t =
  match node with
  | Xml.Text _ -> node
  | Xml.Element e ->
    let attr_children =
      List.map (fun (a : Xml.attribute) -> Xml.leaf a.name a.value) e.attrs
    in
    let children = attr_children @ List.map attrs_to_children e.children in
    Xml.Element { e with attrs = []; children }

let of_xml ?dtd xml =
  (match xml with
  | Xml.Text _ -> invalid_arg "Document.of_xml: the root must be an element"
  | Xml.Element _ -> ());
  let xml = attrs_to_children xml in
  let total = Xml.count_nodes xml in
  let tags = Interner.create () in
  let kinds = Bytes.make total '\000' in
  let tag = Array.make total (-1) in
  let parent = Array.make total (-1) in
  let depth = Array.make total 0 in
  let size = Array.make total 1 in
  let texts = Array.make total "" in
  let elements = ref 0 in
  let next = ref 0 in
  let rec fill node ~parent_id ~level =
    let id = !next in
    next := id + 1;
    parent.(id) <- parent_id;
    depth.(id) <- level;
    (match node with
    | Xml.Text s ->
      Bytes.set kinds id '\001';
      texts.(id) <- s
    | Xml.Element e ->
      incr elements;
      tag.(id) <- Interner.intern tags e.tag;
      List.iter (fun c -> fill c ~parent_id:id ~level:(level + 1)) e.children);
    size.(id) <- !next - id
  in
  fill xml ~parent_id:(-1) ~level:0;
  {
    dtd;
    dtd_source = None;
    tags;
    kinds;
    tag = ba_of_array tag;
    parent = ba_of_array parent;
    depth = ba_of_array depth;
    size = ba_of_array size;
    texts = Strings texts;
    element_count = !elements;
  }

let of_document (doc : Xml.document) =
  let dtd =
    match doc.dtd with
    | Some subset -> Some (Extract_xml.Dtd.parse subset)
    | None -> None
  in
  let t = of_xml ?dtd (Xml.Element doc.root) in
  { t with dtd_source = doc.dtd }

(* The one way XML text becomes an arena: a single fold over the parser's
   events, with no intermediate tree. XML attributes become leaf children
   at the point their element starts, as [attrs_to_children] does for a
   tree, so [load_string (print doc)] equals [of_document doc]. *)
let build ?limits input =
  let tags = Interner.create () in
  let kind_buf = Buffer.create 1024 in
  let tag = Arraylist.create () and parent = Arraylist.create () in
  let depth = Arraylist.create () and size = Arraylist.create () in
  let texts = Arraylist.create () in
  let elements = ref 0 in
  (* [tag_id] is -1 for a text node *)
  let push ~tag_id ~parent_id ~level text =
    let id = Arraylist.length tag in
    Buffer.add_char kind_buf (if tag_id >= 0 then '\000' else '\001');
    if tag_id >= 0 then incr elements;
    Arraylist.push tag tag_id;
    Arraylist.push parent parent_id;
    Arraylist.push depth level;
    Arraylist.push size 1;
    Arraylist.push texts text;
    id
  in
  (* open element ids, innermost first, [level] of them *)
  let stack = ref [] and level = ref 0 in
  let current_parent () =
    match !stack with
    | id :: _ -> id
    | [] -> -1
  in
  let (), dtd_source =
    Parser.fold_document ?limits input ~init:() ~f:(fun () -> function
      | Parser.Start_element (name, attrs) ->
        let id =
          push ~tag_id:(Interner.intern tags name) ~parent_id:(current_parent ()) ~level:!level ""
        in
        stack := id :: !stack;
        incr level;
        List.iter
          (fun (aname, avalue) ->
            let attr_id = push ~tag_id:(Interner.intern tags aname) ~parent_id:id ~level:!level "" in
            ignore (push ~tag_id:(-1) ~parent_id:attr_id ~level:(!level + 1) avalue);
            Arraylist.set size attr_id 2)
          attrs
      | Parser.Text text ->
        ignore (push ~tag_id:(-1) ~parent_id:(current_parent ()) ~level:!level text)
      | Parser.End_element _ -> (
        match !stack with
        | id :: rest ->
          Arraylist.set size id (Arraylist.length tag - id);
          stack := rest;
          decr level
        | [] -> assert false))
  in
  let dtd = Option.map Extract_xml.Dtd.parse dtd_source in
  {
    dtd;
    dtd_source;
    tags;
    kinds = Bytes.of_string (Buffer.contents kind_buf);
    tag = ba_of_array (Arraylist.to_array tag);
    parent = ba_of_array (Arraylist.to_array parent);
    depth = ba_of_array (Arraylist.to_array depth);
    size = ba_of_array (Arraylist.to_array size);
    texts = Strings (Arraylist.to_array texts);
    element_count = !elements;
  }

let load_string input = build input

let load_file path = load_string (In_channel.with_open_bin path In_channel.input_all)

let dtd t = t.dtd

let element_count t = t.element_count

let root _ = 0

let is_element t n =
  check t n;
  Bytes.get t.kinds n = '\000'

let tag_id t n =
  check t n;
  let id = t.tag.{n} in
  if id < 0 then invalid_arg (Printf.sprintf "Document.tag_id: node %d is a text node" n);
  id

let tag_name t n = Interner.name t.tags (tag_id t n)

let tag_interner t = t.tags

let tag_of_name t name = Interner.find t.tags name

let text t n =
  check t n;
  if Bytes.get t.kinds n <> '\001' then
    invalid_arg (Printf.sprintf "Document.text: node %d is an element" n);
  text_at t n

let parent t n =
  check t n;
  let p = t.parent.{n} in
  if p < 0 then None else Some p

let parent_exn t n =
  match parent t n with
  | Some p -> p
  | None -> invalid_arg "Document.parent_exn: the root has no parent"

let depth t n =
  check t n;
  t.depth.{n}

let subtree_size t n =
  check t n;
  t.size.{n}

let subtree_last t n = n + subtree_size t n - 1

let iter_children t n f =
  check t n;
  let stop = subtree_last t n in
  let c = ref (n + 1) in
  while !c <= stop do
    f !c;
    c := !c + t.size.{!c}
  done

let children t n =
  let acc = ref [] in
  iter_children t n (fun c -> acc := c :: !acc);
  List.rev !acc

let is_ancestor_or_self t ~anc ~desc =
  check t anc;
  check t desc;
  anc <= desc && desc <= subtree_last t anc

let rec lca t a b =
  if a = b then a
  else if t.depth.{a} > t.depth.{b} then lca t t.parent.{a} b
  else if t.depth.{b} > t.depth.{a} then lca t a t.parent.{b}
  else lca t t.parent.{a} t.parent.{b}

let lca t a b =
  check t a;
  check t b;
  lca t a b

let ancestor_at_depth t n d =
  check t n;
  if d < 0 || d > t.depth.{n} then
    invalid_arg (Printf.sprintf "Document.ancestor_at_depth: depth %d vs node depth %d" d t.depth.{n});
  let rec up n = if t.depth.{n} = d then n else up t.parent.{n} in
  up n

let immediate_text t n =
  let buf = Buffer.create 16 in
  iter_children t n (fun c ->
      if Bytes.get t.kinds c = '\001' then Buffer.add_string buf (text_at t c));
  Buffer.contents buf

let has_only_text_children t n =
  check t n;
  if t.size.{n} <= 1 then false
  else begin
    let ok = ref true and any = ref false in
    iter_children t n (fun c ->
        any := true;
        if Bytes.get t.kinds c = '\000' then ok := false);
    !any && !ok
  end

let rec to_xml t n =
  check t n;
  if Bytes.get t.kinds n = '\001' then Xml.Text (text_at t n)
  else begin
    let kids = List.map (to_xml t) (children t n) in
    Xml.Element { Xml.tag = tag_name t n; attrs = []; children = kids }
  end

let dtd_source t =
  match t.dtd_source, t.dtd with
  | (Some _ as s), _ -> s
  | None, Some dtd ->
    let rendered = Format.asprintf "%a" Extract_xml.Dtd.pp dtd in
    if rendered = "" then None else Some rendered
  | None, None -> None

let tag_names t =
  let names = Array.make (Interner.count t.tags) "" in
  Interner.iter (fun id name -> names.(id) <- name) t.tags;
  names

let make ~dtd_source ~tag_names ~kinds ~tag ~parent ~depth ~size ~texts ~element_count =
  let tags = Interner.create ~capacity:(Array.length tag_names) () in
  Array.iter (fun name -> ignore (Interner.intern tags name)) tag_names;
  let dtd = Option.map Extract_xml.Dtd.parse dtd_source in
  { dtd; dtd_source; tags; kinds; tag; parent; depth; size; texts; element_count }

module Internal = struct
  type repr = {
    dtd_source : string option;
    tag_names : string array;
    kinds : Bytes.t;
    tag : int array;
    parent : int array;
    depth : int array;
    size : int array;
    texts : string array;
    element_count : int;
  }

  let to_repr t =
    {
      dtd_source = dtd_source t;
      tag_names = tag_names t;
      kinds = t.kinds;
      tag = ba_to_array t.tag;
      parent = ba_to_array t.parent;
      depth = ba_to_array t.depth;
      size = ba_to_array t.size;
      texts =
        (match t.texts with
        | Strings a -> a
        | Blob _ -> Array.init (node_count t) (fun n -> text_at t n));
      element_count = t.element_count;
    }

  let of_repr (r : repr) =
    make ~dtd_source:r.dtd_source ~tag_names:r.tag_names ~kinds:r.kinds
      ~tag:(ba_of_array r.tag) ~parent:(ba_of_array r.parent)
      ~depth:(ba_of_array r.depth) ~size:(ba_of_array r.size)
      ~texts:(Strings r.texts) ~element_count:r.element_count

  let load_string_with ~limits input = build ~limits input
end

(* Flat column access: the zero-copy seam {!Snapshot} packs from and maps
   into. [of_source] adopts the caller's bigarrays (possibly file-backed)
   without copying; [to_source] flattens per-node strings into one blob
   when needed. *)
module Flat = struct
  type source = {
    dtd_source : string option;
    tag_names : string array;
    element_count : int;
    kinds : Bytes.t;
    tag : int_arr;
    parent : int_arr;
    depth : int_arr;
    size : int_arr;
    text_offsets : int_arr; (* node_count + 1 entries *)
    text_blob : char_arr;
  }

  let of_source (s : source) =
    let n = Bigarray.Array1.dim s.tag in
    let dim what a =
      if Bigarray.Array1.dim a <> n then
        invalid_arg (Printf.sprintf "Document.Flat.of_source: %s has %d entries, expected %d"
                       what (Bigarray.Array1.dim a) n)
    in
    dim "parent" s.parent;
    dim "depth" s.depth;
    dim "size" s.size;
    if Bytes.length s.kinds <> n then
      invalid_arg "Document.Flat.of_source: kinds length mismatch";
    if Bigarray.Array1.dim s.text_offsets <> n + 1 then
      invalid_arg "Document.Flat.of_source: text offset table must have node_count + 1 entries";
    if s.text_offsets.{n} <> Bigarray.Array1.dim s.text_blob then
      invalid_arg "Document.Flat.of_source: text offsets disagree with blob length";
    make ~dtd_source:s.dtd_source ~tag_names:s.tag_names ~kinds:s.kinds ~tag:s.tag
      ~parent:s.parent ~depth:s.depth ~size:s.size
      ~texts:(Blob { offsets = s.text_offsets; blob = s.text_blob })
      ~element_count:s.element_count

  let to_source t : source =
    let n = node_count t in
    let text_offsets, text_blob =
      match t.texts with
      | Blob { offsets; blob } -> offsets, blob
      | Strings a ->
        let offsets = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (n + 1) in
        let total = Array.fold_left (fun acc s -> acc + String.length s) 0 a in
        let blob = Bigarray.Array1.create Bigarray.char Bigarray.c_layout total in
        let off = ref 0 in
        Array.iteri
          (fun i s ->
            offsets.{i} <- !off;
            String.iter
              (fun c ->
                Bigarray.Array1.unsafe_set blob !off c;
                incr off)
              s)
          a;
        offsets.{n} <- !off;
        offsets, blob
    in
    {
      dtd_source = dtd_source t;
      tag_names = tag_names t;
      element_count = t.element_count;
      kinds = t.kinds;
      tag = t.tag;
      parent = t.parent;
      depth = t.depth;
      size = t.size;
      text_offsets;
      text_blob;
    }
end
