type align = Left | Right

type 'row column = string * align * ('row -> string)

type t = { headers : string list; aligns : align list; rows : string list list }

let make columns rows =
  {
    headers = List.map (fun (header, _, _) -> header) columns;
    aligns = List.map (fun (_, align, _) -> align) columns;
    rows = List.map (fun row -> List.map (fun (_, _, cell) -> cell row) columns) rows;
  }

let render t =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) t.rows)
      t.headers
  in
  let pad align w s =
    let fill = String.make (w - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let render_row cells =
    let padded =
      List.map2 (fun (a, w) c -> pad a w c) (List.combine t.aligns widths) cells
    in
    String.concat "  " padded
  in
  let header = render_row t.headers in
  let rule = String.make (String.length header) '-' in
  String.concat "\n" (header :: rule :: List.map render_row t.rows)

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let render_csv t =
  let row cells = String.concat "," (List.map csv_cell cells) in
  String.concat "\n" (row t.headers :: List.map row t.rows)

let print t =
  print_string (render t);
  print_newline ()
