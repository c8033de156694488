module Prng = Extract_util.Prng
module Zipf = Extract_util.Zipf

type config = {
  seed : int;
  retailers : int;
  stores_per_retailer : int;
  clothes_per_store : int;
  city_pool : int;
  category_pool : int;
  value_skew : float;
  with_dtd : bool;
}

let default =
  {
    seed = 42;
    retailers = 8;
    stores_per_retailer = 10;
    clothes_per_store = 12;
    city_pool = 6;
    category_pool = 8;
    value_skew = 1.0;
    with_dtd = true;
  }

let dtd_subset = Paper_example.(document ~with_dtd:true ()).Extract_xml.Types.dtd

let clothes rng zipf_cat zipf_small categories =
  let category = Gen.pick_zipf rng zipf_cat categories in
  let situation = Gen.pick_zipf rng zipf_small Names.situations |> fun s -> s in
  let fitting =
    (* 3-way choice reuses the binary Zipf by splitting the tail *)
    let i = Zipf.sample zipf_small rng in
    Names.fittings.(if i = 0 then 0 else 1 + Prng.int rng 2)
  in
  Gen.el "clothes"
    [
      Gen.leaf "category" category;
      Gen.leaf "situation" situation;
      Gen.leaf "fitting" fitting;
    ]

let store rng cfg ~store_id zipf_city zipf_cat zipf_small cities categories =
  let name = Names.unique_label (Prng.choose rng Names.store_names) store_id in
  let city = Gen.pick_zipf rng zipf_city cities in
  let state = Names.states.(Prng.int rng (Array.length Names.states)) in
  let merchandise =
    List.init cfg.clothes_per_store (fun _ -> clothes rng zipf_cat zipf_small categories)
  in
  Gen.el "store"
    [
      Gen.leaf "name" name;
      Gen.leaf "state" state;
      Gen.leaf "city" city;
      Gen.el "merchandises" merchandise;
    ]

let retailer rng cfg ~retailer_id zipfs =
  let zipf_city, zipf_cat, zipf_small = zipfs in
  let cities =
    Array.of_list (Prng.sample rng Names.cities cfg.city_pool)
  in
  let categories =
    Array.of_list (Prng.sample rng Names.clothes_categories cfg.category_pool)
  in
  let name =
    Names.unique_label
      Names.retailer_names.(retailer_id mod Array.length Names.retailer_names)
      retailer_id
  in
  let stores =
    List.init cfg.stores_per_retailer (fun i ->
        store rng cfg
          ~store_id:((retailer_id * cfg.stores_per_retailer) + i)
          zipf_city zipf_cat zipf_small cities categories)
  in
  Gen.el "retailer" (Gen.leaf "name" name :: Gen.leaf "product" "apparel" :: stores)

let generate cfg =
  let rng = Prng.create cfg.seed in
  let zipf_city = Zipf.create ~n:cfg.city_pool ~skew:cfg.value_skew in
  let zipf_cat = Zipf.create ~n:cfg.category_pool ~skew:cfg.value_skew in
  let zipf_small = Zipf.create ~n:2 ~skew:cfg.value_skew in
  let retailers =
    List.init cfg.retailers (fun i ->
        retailer rng cfg ~retailer_id:i (zipf_city, zipf_cat, zipf_small))
  in
  let root = Gen.el "retailers" retailers in
  Gen.document ?dtd:(if cfg.with_dtd then dtd_subset else None) root

let scaled ?(seed = 42) n =
  let clothes_total = max 1 n in
  let per_store = default.clothes_per_store in
  let stores_total = max 1 (clothes_total / per_store) in
  let retailers = max 1 (stores_total / default.stores_per_retailer) in
  let stores_per_retailer = max 1 (stores_total / retailers) in
  generate { default with seed; retailers; stores_per_retailer }
