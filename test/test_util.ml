(* Tests for Asc_util: words, bit vectors, bit matrices, RNG, tables,
   stats, durable files.  Property tests check the packed structures against naive
   bool-array models. *)

open Asc_util

let qtest = QCheck_alcotest.to_alcotest

(* --- Word ---------------------------------------------------------- *)

let test_word_basics () =
  Alcotest.(check int) "width" 62 Word.width;
  Alcotest.(check int) "mask popcount" 62 (Word.popcount Word.mask);
  Alcotest.(check int) "zero popcount" 0 (Word.popcount 0);
  Alcotest.(check int) "one popcount" 1 (Word.popcount 1);
  Alcotest.(check bool) "get set" true (Word.get (Word.set 0 13) 13);
  Alcotest.(check bool) "clear" false (Word.get (Word.clear Word.mask 13) 13);
  Alcotest.(check int) "splat true" Word.mask (Word.splat true);
  Alcotest.(check int) "splat false" 0 (Word.splat false);
  Alcotest.(check int) "lowest_set empty" (-1) (Word.lowest_set 0);
  Alcotest.(check int) "lowest_set" 3 (Word.lowest_set 0b11000)

let word_gen = QCheck.map (fun i -> abs i land Word.mask) QCheck.int

let prop_word_popcount =
  QCheck.Test.make ~name:"Word.popcount matches bit loop" ~count:500 word_gen (fun w ->
      let naive = ref 0 in
      for i = 0 to Word.width - 1 do
        if Word.get w i then incr naive
      done;
      Word.popcount w = !naive)

let prop_word_iter =
  QCheck.Test.make ~name:"Word.iter_set visits exactly the set bits" ~count:500 word_gen
    (fun w ->
      let seen = ref [] in
      Word.iter_set (fun i -> seen := i :: !seen) w;
      let rebuilt = List.fold_left (fun acc i -> Word.set acc i) 0 !seen in
      rebuilt = w && List.length !seen = Word.popcount w)

(* --- Bitvec -------------------------------------------------------- *)

let test_bitvec_basics () =
  let v = Bitvec.create 100 in
  Alcotest.(check int) "fresh count" 0 (Bitvec.count v);
  Bitvec.set v 0;
  Bitvec.set v 63;
  Bitvec.set v 99;
  Alcotest.(check int) "count" 3 (Bitvec.count v);
  Alcotest.(check bool) "get" true (Bitvec.get v 63);
  Alcotest.(check int) "first_set" 0 (Bitvec.first_set v);
  Bitvec.clear v 0;
  Alcotest.(check int) "first_set after clear" 63 (Bitvec.first_set v);
  Alcotest.(check (list int)) "to_list" [ 63; 99 ] (Bitvec.to_list v);
  let full = Bitvec.create ~default:true 100 in
  Alcotest.(check int) "default true count" 100 (Bitvec.count full);
  Bitvec.fill full false;
  Alcotest.(check bool) "fill false" true (Bitvec.is_empty full)

let test_bitvec_bounds () =
  let v = Bitvec.create 10 in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bitvec.get v 10));
  Alcotest.check_raises "set negative" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> Bitvec.set v (-1))

(* Regression: [create ~default:true] (and [fill true]) on lengths that
   are exact word multiples must not shift by a full word width. *)
let test_bitvec_default_word_boundary () =
  List.iter
    (fun len ->
      let v = Bitvec.create ~default:true len in
      Alcotest.(check int) (Printf.sprintf "count len=%d" len) len (Bitvec.count v);
      if len > 0 then begin
        Alcotest.(check bool) "first bit" true (Bitvec.get v 0);
        Alcotest.(check bool) "last bit" true (Bitvec.get v (len - 1))
      end;
      let w = Bitvec.create len in
      Bitvec.fill w true;
      Alcotest.(check bool) (Printf.sprintf "fill = default len=%d" len) true
        (Bitvec.equal v w))
    [ 0; 1; 61; 62; 63; 124; 186; 200 ]

(* Model-based property: random operation sequences agree with a bool
   array model. *)
let bitvec_pair_gen =
  QCheck.make
    ~print:(fun (n, xs, ys) ->
      Printf.sprintf "n=%d xs=[%s] ys=[%s]" n
        (String.concat ";" (List.map string_of_int xs))
        (String.concat ";" (List.map string_of_int ys)))
    QCheck.Gen.(
      int_range 1 300 >>= fun n ->
      list_size (int_bound 60) (int_bound (n - 1)) >>= fun xs ->
      list_size (int_bound 60) (int_bound (n - 1)) >>= fun ys -> return (n, xs, ys))

let model_of n xs =
  let a = Array.make n false in
  List.iter (fun i -> a.(i) <- true) xs;
  a

let prop_bitvec_set_ops =
  QCheck.Test.make ~name:"Bitvec union/inter/diff vs bool arrays" ~count:300
    bitvec_pair_gen (fun (n, xs, ys) ->
      let a = Bitvec.of_list n xs and b = Bitvec.of_list n ys in
      let ma = model_of n xs and mb = model_of n ys in
      let check op mop =
        let v = op a b in
        let m = Array.init n (fun i -> mop ma.(i) mb.(i)) in
        Array.for_all Fun.id (Array.init n (fun i -> Bitvec.get v i = m.(i)))
      in
      check Bitvec.union ( || )
      && check Bitvec.inter ( && )
      && check Bitvec.diff (fun x y -> x && not y))

let prop_bitvec_subset =
  QCheck.Test.make ~name:"Bitvec.subset agrees with pointwise implication" ~count:300
    bitvec_pair_gen (fun (n, xs, ys) ->
      let a = Bitvec.of_list n xs and b = Bitvec.of_list n ys in
      let ma = model_of n xs and mb = model_of n ys in
      let expected =
        Array.for_all Fun.id (Array.init n (fun i -> (not ma.(i)) || mb.(i)))
      in
      Bitvec.subset a b = expected)

let prop_bitvec_count =
  QCheck.Test.make ~name:"Bitvec.count = |set bits|" ~count:300 bitvec_pair_gen
    (fun (n, xs, _) ->
      let a = Bitvec.of_list n xs in
      let distinct = List.sort_uniq compare xs in
      Bitvec.count a = List.length distinct
      && Bitvec.to_list a = distinct)

(* --- Bitmat -------------------------------------------------------- *)

let test_bitmat () =
  let m = Bitmat.create 4 10 in
  Bitmat.set m 0 3;
  Bitmat.set m 2 3;
  Bitmat.set m 3 7;
  Alcotest.(check int) "column_count" 2 (Bitmat.column_count m 3);
  Alcotest.(check int) "last_row_with" 2 (Bitmat.last_row_with m 3);
  Alcotest.(check int) "last_row_with none" (-1) (Bitmat.last_row_with m 5);
  let u = Bitmat.column_union m in
  Alcotest.(check (list int)) "column_union" [ 3; 7 ] (Bitvec.to_list u);
  let counts = Bitmat.column_counts m in
  Alcotest.(check int) "column_counts[3]" 2 counts.(3);
  Alcotest.(check int) "column_counts[7]" 1 counts.(7);
  Alcotest.(check int) "column_counts[0]" 0 counts.(0)

(* --- Rng ----------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.of_name ~seed:42 "circuit" in
  let b = Rng.of_name ~seed:42 "circuit" in
  let xs = List.init 20 (fun _ -> Rng.bits a) in
  let ys = List.init 20 (fun _ -> Rng.bits b) in
  Alcotest.(check (list int)) "same stream" xs ys;
  let c = Rng.of_name ~seed:43 "circuit" in
  let zs = List.init 20 (fun _ -> Rng.bits c) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs);
  let d = Rng.of_name ~seed:42 "other" in
  let ws = List.init 20 (fun _ -> Rng.bits d) in
  Alcotest.(check bool) "different name differs" true (xs <> ws)

let test_rng_copy_split () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  Alcotest.(check int) "copy same future" (Rng.bits a) (Rng.bits b);
  let c = Rng.split a in
  Alcotest.(check bool) "split independent" true (Rng.bits a <> Rng.bits c)

let prop_rng_int_range =
  QCheck.Test.make ~name:"Rng.int stays in range" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      List.for_all
        (fun _ ->
          let v = Rng.int rng bound in
          v >= 0 && v < bound)
        (List.init 50 Fun.id))

let prop_rng_word_width =
  QCheck.Test.make ~name:"Rng.word respects width" ~count:200
    QCheck.(pair small_int (int_range 0 62))
    (fun (seed, width) ->
      let rng = Rng.create seed in
      let w = Rng.word rng ~width in
      w >= 0 && (width = 62 || w < 1 lsl width))

let test_rng_weighted () =
  let rng = Rng.create 5 in
  (* Zero-weight entries are never picked. *)
  for _ = 1 to 200 do
    let i = Rng.weighted rng [| 0; 3; 0; 5 |] in
    Alcotest.(check bool) "only positive weights" true (i = 1 || i = 3)
  done

(* --- Stats and Table ----------------------------------------------- *)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1; 2; 3 ]);
  Alcotest.(check string) "range" "1-3" (Stats.range_string [ 2; 1; 3 ]);
  Alcotest.(check string) "mean_string" "1.20" (Stats.mean_string [ 1; 1; 1; 2; 1 ]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [ 3; 1; 2 ]);
  Alcotest.(check (float 1e-9)) "median even" 1.5 (Stats.median [ 1; 2; 1; 2 ]);
  Alcotest.(check int) "sum" 6 (Stats.sum [ 1; 2; 3 ]);
  Alcotest.(check (float 1e-9)) "percent" 50.0 (Stats.percent ~num:1 ~den:2);
  Alcotest.(check (float 1e-9)) "percent zero den" 0.0 (Stats.percent ~num:1 ~den:0)

let test_stats_float () =
  Alcotest.(check (float 1e-9)) "sum_f" 6.0 (Stats.sum_f [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean_f" 2.0 (Stats.mean_f [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean_f empty" 0.0 (Stats.mean_f []);
  let lo, hi = Stats.min_max_f [ 2.5; 0.5; 1.0 ] in
  Alcotest.(check (float 1e-9)) "min_max_f lo" 0.5 lo;
  Alcotest.(check (float 1e-9)) "min_max_f hi" 2.5 hi;
  Alcotest.(check (float 1e-9)) "median_f odd" 1.0 (Stats.median_f [ 2.5; 0.5; 1.0 ]);
  Alcotest.(check (float 1e-9)) "median_f even" 1.5 (Stats.median_f [ 2.0; 1.0 ])

let test_stats_stddev () =
  (* Population stddev of {2,4,4,4,5,5,7,9} is exactly 2. *)
  Alcotest.(check (float 1e-9)) "stddev"
    2.0
    (Stats.stddev [ 2; 4; 4; 4; 5; 5; 7; 9 ]);
  Alcotest.(check (float 1e-9)) "stddev_f constant" 0.0
    (Stats.stddev_f [ 3.0; 3.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev_f singleton" 0.0 (Stats.stddev_f [ 42.0 ]);
  Alcotest.(check (float 1e-9)) "stddev_f empty" 0.0 (Stats.stddev_f [])

let test_stats_percentile () =
  let l = [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (Stats.percentile_f ~p:0.0 l);
  Alcotest.(check (float 1e-9)) "p100 = max" 4.0 (Stats.percentile_f ~p:100.0 l);
  Alcotest.(check (float 1e-9)) "p50 = median" (Stats.median_f l)
    (Stats.percentile_f ~p:50.0 l);
  (* Linear interpolation between closest ranks: rank 0.75 of [1;2;3;4]. *)
  Alcotest.(check (float 1e-9)) "p25 interpolates" 1.75
    (Stats.percentile_f ~p:25.0 l);
  Alcotest.(check (float 1e-9)) "int variant" 1.75 (Stats.percentile ~p:25.0 [ 4; 1; 3; 2 ]);
  Alcotest.check_raises "empty list" (Invalid_argument "Stats.percentile_f: empty list")
    (fun () -> ignore (Stats.percentile_f ~p:50.0 []));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile_f: p must be in [0, 100] (got 101)")
    (fun () -> ignore (Stats.percentile_f ~p:101.0 [ 1.0 ]))

let test_table () =
  let t =
    Table.create ~caption:"Demo"
      ~groups:[ ("", 1); ("pair", 2) ]
      [ Table.left "name"; Table.right "a"; Table.right "b" ]
  in
  Table.add_row t [ "x"; "1"; "22" ];
  Table.add_row t [ "yyyy"; "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains caption" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "several lines" true (List.length lines >= 6);
  Alcotest.check_raises "row arity enforced"
    (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
      Table.add_row t [ "too"; "few" ])

let test_table_group_mismatch () =
  Alcotest.check_raises "group span mismatch"
    (Invalid_argument "Table.create: group span mismatch") (fun () ->
      ignore (Table.create ~caption:"x" ~groups:[ ("a", 2) ] [ Table.left "one" ]))

(* --- Durable ------------------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "asc-durable" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let prop_durable_seal_roundtrip =
  QCheck.Test.make ~name:"Durable.unseal inverts seal" ~count:300
    QCheck.string (fun s -> Durable.unseal (Durable.seal s) = Ok s)

(* Any single-byte change, truncation or appended byte of a sealed text
   is rejected: the CRC covers the body, and the trailer must be the
   exact canonical last line. *)
let prop_durable_seal_rejects_damage =
  let open QCheck.Gen in
  let damaged =
    string >>= fun body ->
    let sealed = Durable.seal body in
    let n = String.length sealed in
    oneof
      [
        ( int_bound (n - 1) >>= fun k ->
          int_range 1 255 >>= fun d ->
          let b = Bytes.of_string sealed in
          Bytes.set b k (Char.chr ((Char.code sealed.[k] + d) mod 256));
          return (Bytes.to_string b) );
        (int_bound (n - 1) >>= fun k -> return (String.sub sealed 0 k));
        (char >>= fun c -> return (sealed ^ String.make 1 c));
      ]
  in
  QCheck.Test.make ~name:"Durable.unseal rejects flipped, truncated and padded texts"
    ~count:500
    (QCheck.make ~print:String.escaped damaged)
    (fun text -> Result.is_error (Durable.unseal text))

let read path = Durable.read_file path

(* After n replaces with [keep = k], <file>, <file>.1, … hold the last
   [min n k] texts, newest first, and no other copy exists. *)
let prop_durable_rotation =
  QCheck.Test.make ~name:"Durable.replace keeps the last min n k texts" ~count:40
    QCheck.(pair (int_range 1 7) (int_range 1 4))
    (fun (n, keep) ->
      with_temp_dir @@ fun dir ->
      let path = Filename.concat dir "f" in
      let text i = Printf.sprintf "text %d\n" i in
      for i = 1 to n do
        Durable.replace ~keep path (text i)
      done;
      let kept = List.init (min n keep) (fun j -> text (n - j)) in
      List.map read (path :: Durable.copies path) = kept
      && Durable.copies path
         = List.init (min n keep - 1) (fun j -> Printf.sprintf "%s.%d" path (j + 1)))

(* A replace that fails at open, write or rename — injected through the
   step hook, or a real rename onto a directory — leaves no temp file and
   an unchanged target. *)
let prop_durable_failed_replace =
  let failing =
    QCheck.(
      triple (option small_printable_string)
        (make ~print:(function `Open -> "open" | `Output -> "output"
                       | `Rename -> "rename" | `Dir -> "directory target")
           Gen.(oneofl [ `Open; `Output; `Rename; `Dir ]))
        small_printable_string)
  in
  QCheck.Test.make ~name:"Durable.replace failures leave no temp file" ~count:40
    failing (fun (before, where, text) ->
      with_temp_dir @@ fun dir ->
      let path = Filename.concat dir "f" in
      let before = if where = `Dir then None else before in
      Option.iter (fun b -> Durable.replace path b) before;
      if where = `Dir then Sys.mkdir path 0o755;
      let step st =
        match (st, where) with
        | Durable.Open, `Open | Output, `Output | Rename, `Rename ->
            raise (Sys_error "injected")
        | _ -> ()
      in
      let raised =
        match Durable.replace ~step ~retries:1 path text with
        | () -> false
        | exception Sys_error _ -> true
      in
      let unchanged =
        match before with
        | _ when where = `Dir -> Sys.is_directory path
        | Some b -> read path = b
        | None -> not (Sys.file_exists path)
      in
      raised && unchanged && not (Sys.file_exists (path ^ ".tmp")))

let test_durable_copies () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "ck" in
  List.iter
    (fun n -> Out_channel.with_open_bin (Filename.concat dir n) ignore)
    [ "ck"; "ck.2"; "ck.10"; "ck.3"; "ck.07"; "ck.x"; "ck.tmp"; "ck.0"; "other.1" ];
  Alcotest.(check (list string)) "numbered copies, newest first, gaps skipped"
    (List.map (fun k -> Printf.sprintf "%s.%d" path k) [ 2; 3; 10 ])
    (Durable.copies path);
  Alcotest.(check (list string)) "no copies" [] (Durable.copies (path ^ "x"))

let suite =
  [
    ( "util",
      [
        Alcotest.test_case "word basics" `Quick test_word_basics;
        qtest prop_word_popcount;
        qtest prop_word_iter;
        Alcotest.test_case "bitvec basics" `Quick test_bitvec_basics;
        Alcotest.test_case "bitvec bounds" `Quick test_bitvec_bounds;
        Alcotest.test_case "bitvec default at word boundaries" `Quick
          test_bitvec_default_word_boundary;
        qtest prop_bitvec_set_ops;
        qtest prop_bitvec_subset;
        qtest prop_bitvec_count;
        Alcotest.test_case "bitmat" `Quick test_bitmat;
        Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng copy/split" `Quick test_rng_copy_split;
        qtest prop_rng_int_range;
        qtest prop_rng_word_width;
        Alcotest.test_case "rng weighted" `Quick test_rng_weighted;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "stats float variants" `Quick test_stats_float;
        Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
        Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
        Alcotest.test_case "table" `Quick test_table;
        Alcotest.test_case "table group mismatch" `Quick test_table_group_mismatch;
        qtest prop_durable_seal_roundtrip;
        qtest prop_durable_seal_rejects_damage;
        qtest prop_durable_rotation;
        qtest prop_durable_failed_replace;
        Alcotest.test_case "durable copies" `Quick test_durable_copies;
      ] );
  ]
