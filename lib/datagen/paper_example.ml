module Xml = Extract_xml.Types

let query = "Texas apparel retailer"

let expected_ilist =
  [
    "texas"; "apparel"; "retailer"; "clothes"; "store"; "Brook Brothers"; "Houston";
    "outwear"; "man"; "casual"; "suit"; "woman";
  ]

let store_count = 10

let clothes_count = 1070

let dtd_subset =
  "\n\
  \  <!ELEMENT retailers (retailer*)>\n\
  \  <!ELEMENT retailer (name, product, store*)>\n\
  \  <!ELEMENT store (name, state, city, merchandises)>\n\
  \  <!ELEMENT merchandises (clothes*)>\n\
  \  <!ELEMENT clothes (category?, situation?, fitting?)>\n\
  \  <!ELEMENT name (#PCDATA)>\n\
  \  <!ELEMENT product (#PCDATA)>\n\
  \  <!ELEMENT state (#PCDATA)>\n\
  \  <!ELEMENT city (#PCDATA)>\n\
  \  <!ELEMENT category (#PCDATA)>\n\
  \  <!ELEMENT situation (#PCDATA)>\n\
  \  <!ELEMENT fitting (#PCDATA)>\n"

(* Value multisets dictated by Figure 1's statistics panel. *)

let city_spec =
  [ "Houston", 6; "Austin", 1; "Dallas", 1; "El Paso", 1; "San Antonio", 1 ]

let category_spec =
  [
    "outwear", 220; "suit", 120; "skirt", 80; "sweaters", 70;
    (* "Other categories (7): 580" *)
    "jeans", 84; "shirts", 83; "dresses", 83; "shorts", 83; "jackets", 83;
    "coats", 82; "vests", 82;
  ]

let fitting_spec = [ "man", 600; "woman", 360; "children", 40 ]

let situation_spec = [ "casual", 700; "formal", 300 ]

let clothes_elements () =
  let categories = Gen.expand_counts category_spec in
  let fittings = Gen.expand_counts fitting_spec in
  let situations = Gen.expand_counts situation_spec in
  assert (Array.length categories = clothes_count);
  (* Interleave so every store receives a mix of values: item [i] takes the
     [i]-th value of each multiset after a fixed stride permutation. *)
  let permuted arr =
    let n = Array.length arr in
    (* stride coprime with n spreads the blocks of equal values *)
    let stride = 7 in
    Array.init n (fun i -> arr.(i * stride mod n))
  in
  let categories = permuted categories in
  let fittings = permuted fittings in
  let situations = permuted situations in
  List.init clothes_count (fun i ->
      let children =
        [ Gen.leaf "category" categories.(i) ]
        @ (if i < Array.length situations then [ Gen.leaf "situation" situations.(i) ] else [])
        @ if i < Array.length fittings then [ Gen.leaf "fitting" fittings.(i) ] else []
      in
      Gen.el "clothes" children)

let brook_brothers () =
  let cities = Gen.expand_counts city_spec in
  let clothes = Array.of_list (clothes_elements ()) in
  let per_store = Gen.deal clothes store_count in
  let stores =
    List.init store_count (fun i ->
        Gen.el "store"
          [
            Gen.leaf "name" Names.store_names.(i);
            Gen.leaf "state" "Texas";
            Gen.leaf "city" cities.(i);
            Gen.el "merchandises" (Array.to_list per_store.(i));
          ])
  in
  Gen.el "retailer" (Gen.leaf "name" "Brook Brothers" :: Gen.leaf "product" "apparel" :: stores)

(* Two retailers outside Texas so the query has exactly one result while
   key mining still sees several retailer instances. *)
let other_retailer ~name ~product ~state ~city ~store_name ~clothes =
  Gen.el "retailer"
    [
      Gen.leaf "name" name;
      Gen.leaf "product" product;
      Gen.el "store"
        [
          Gen.leaf "name" store_name;
          Gen.leaf "state" state;
          Gen.leaf "city" city;
          Gen.el "merchandises"
            (List.map
               (fun (cat, sit, fit) ->
                 Gen.el "clothes"
                   [
                     Gen.leaf "category" cat;
                     Gen.leaf "situation" sit;
                     Gen.leaf "fitting" fit;
                   ])
               clothes);
        ];
    ]

let document ?(with_dtd = true) () =
  let root =
    Gen.el "retailers"
      [
        brook_brothers ();
        other_retailer ~name:"Levis" ~product:"jeans" ~state:"California"
          ~city:"San Francisco" ~store_name:"Union Square"
          ~clothes:[ "jeans", "casual", "man"; "jeans", "casual", "woman" ];
        other_retailer ~name:"ESprit" ~product:"outwear clothing" ~state:"New York"
          ~city:"Brooklyn" ~store_name:"Atlantic Mall"
          ~clothes:[ "outwear", "casual", "woman"; "coats", "formal", "woman" ];
      ]
  in
  Gen.document ?dtd:(if with_dtd then Some dtd_subset else None) root
