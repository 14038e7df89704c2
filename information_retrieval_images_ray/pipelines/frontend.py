"""Built-in search UI: the reference's frontend view layer, served
by the engine itself.

The reference ships a React app whose whole surface is one component
— a form that POSTs ``{query, limit}`` to ``/search`` and renders
result cards (/root/reference/frontend/src/components/Search.tsx:22-76).
Here the analogue is a single self-contained HTML document (no build
step, no JS dependencies, same-origin fetch) served at ``GET /`` by
``IndexHTTPServer``. It drives the full query surface the server
multiplexes: all nine ``/search`` modes, the lang filter, offset
paging, the ``/facets`` panel, text-in ``/knn`` and ``/hybrid``
(server-side embedding), and the ``/stats`` footer. The page is pure
view — every capability it exposes is the HTTP JSON API the tests
exercise; nothing routes around the documented contract.
"""

from __future__ import annotations

INDEX_HTML = """<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>information-retrieval search</title>
<style>
  :root { --fg: #1a1d21; --muted: #6b7280; --line: #e5e7eb;
          --accent: #2563eb; --bg: #f8fafc; --card: #ffffff; }
  * { box-sizing: border-box; }
  body { margin: 0; background: var(--bg); color: var(--fg);
         font: 15px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
  header { background: var(--card); border-bottom: 1px solid var(--line);
           padding: 14px 20px; display: flex; align-items: baseline; gap: 12px; }
  header h1 { font-size: 17px; margin: 0; }
  header span { color: var(--muted); font-size: 13px; }
  main { max-width: 980px; margin: 0 auto; padding: 18px 20px 60px; }
  form#f { display: flex; flex-wrap: wrap; gap: 8px; align-items: center; }
  input, select, button { font: inherit; padding: 7px 10px;
    border: 1px solid var(--line); border-radius: 7px; background: var(--card); }
  #q { flex: 1 1 320px; }
  button { cursor: pointer; }
  button.primary { background: var(--accent); color: #fff; border-color: var(--accent); }
  #boolrow { display: none; gap: 8px; margin-top: 8px; flex-wrap: wrap; }
  #boolrow input { flex: 1 1 180px; }
  .row { display: flex; gap: 18px; margin-top: 16px; align-items: flex-start; }
  #results { flex: 3; min-width: 0; }
  aside { flex: 1; min-width: 180px; }
  .card { background: var(--card); border: 1px solid var(--line);
          border-radius: 9px; padding: 10px 14px; margin-bottom: 10px; }
  .card .path { font-weight: 600; word-break: break-all; }
  .card .meta { color: var(--muted); font-size: 13px; }
  .card .score { color: var(--accent); font-variant-numeric: tabular-nums; }
  .card .snip { margin-top: 4px; font-size: 13px; color: var(--muted); }
  .card .snip em { font-style: normal; font-weight: 600;
                   color: var(--fg); background: #fef08a; }
  .facet { display: flex; justify-content: space-between; font-size: 13px;
           padding: 2px 0; }
  .facet b { font-weight: 500; }
  #status { margin-top: 12px; color: var(--muted); }
  #status.err { color: #b91c1c; }
  #pager { display: none; gap: 8px; margin-top: 12px; }
  footer { position: fixed; bottom: 0; left: 0; right: 0;
           background: var(--card); border-top: 1px solid var(--line);
           padding: 6px 20px; font-size: 12px; color: var(--muted); }
</style>
</head>
<body>
<header><h1>information-retrieval</h1>
  <span>distributed BM25 / vector search</span></header>
<main>
  <form id="f">
    <input id="q" placeholder="Enter search query" autofocus>
    <select id="mode">
      <option value="bm25" selected>bm25</option>
      <option value="boolean">boolean</option>
      <option value="phrase">phrase</option>
      <option value="proximity">proximity</option>
      <option value="span_near">span_near (ordered)</option>
      <option value="prefix">prefix</option>
      <option value="fuzzy">fuzzy</option>
      <option value="wildcard">wildcard</option>
      <option value="regex">regex</option>
      <option value="boosted">boosted (term^2)</option>
      <option value="collapse">collapse (by lang)</option>
      <option value="synonym">synonym</option>
      <option value="more_like_this">more_like_this</option>
      <option value="prf">prf (feedback)</option>
      <option value="knn">knn (vector)</option>
      <option value="hybrid">hybrid (rrf)</option>
    </select>
    <input id="lang" placeholder="lang filter" size="8">
    <input id="limit" type="number" value="10" min="1" max="100" size="4">
    <label><input type="checkbox" id="snip"> snippets</label>
    <button class="primary" type="submit">Search</button>
  </form>
  <div id="boolrow">
    <input id="must" placeholder="must terms">
    <input id="should" placeholder="should terms">
    <input id="must_not" placeholder="must_not terms">
  </div>
  <div id="status"></div>
  <div class="row">
    <div id="results"></div>
    <aside id="facets"></aside>
  </div>
  <div id="pager">
    <button id="prev">&#8592; prev</button>
    <button id="next">next &#8594;</button>
  </div>
</main>
<footer id="stats">loading stats&hellip;</footer>
<script>
"use strict";
const $ = (id) => document.getElementById(id);
let offset = 0;

async function post(path, body) {
  const r = await fetch(path, {
    method: "POST",
    headers: {"Content-Type": "application/json"},
    body: JSON.stringify(body),
  });
  const data = await r.json();
  if (!r.ok) throw new Error(data.error || ("HTTP " + r.status));
  return data;
}

function esc(s) {
  return String(s).replace(/[&<>"]/g,
    (c) => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
}

function card(hit) {
  const name = hit.path || hit.repo || ("doc " + hit.doc_id);
  const score = (hit.score ?? hit.sim ?? hit.rrf ?? 0);
  const meta = ["doc_id " + hit.doc_id,
                hit.repo ? "repo " + esc(hit.repo) : null,
                hit.lang ? "lang " + esc(hit.lang) : null,
                hit.ext ? "ext " + esc(hit.ext) : null]
               .filter(Boolean).join(" &middot; ");
  // the server <em>-marks query terms; escape everything else
  const snip = hit.snippet
    ? '<div class="snip">' + esc(hit.snippet)
        .replace(/&lt;em&gt;/g, "<em>")
        .replace(/&lt;\\/em&gt;/g, "</em>") + "&hellip;</div>"
    : "";
  return '<div class="card"><div class="path">#' + hit.rank + " " +
    esc(name) + '</div><div class="meta">' + meta +
    ' &middot; <span class="score">' +
    Number(score).toFixed(4) + "</span></div>" + snip + "</div>";
}

async function run() {
  const mode = $("mode").value, q = $("q").value;
  const limit = parseInt($("limit").value, 10) || 10;
  const lang = $("lang").value.trim() || null;
  $("status").className = ""; $("status").textContent = "Loading…";
  $("results").innerHTML = ""; $("facets").innerHTML = "";
  try {
    let hits;
    if (mode === "knn") {
      hits = await post("/knn", {text: q, limit});
    } else if (mode === "hybrid") {
      hits = await post("/hybrid", {text: q, limit});
    } else {
      const body = {query: q, limit, mode, offset};
      if (lang) body.lang = lang;
      if ($("snip").checked) body.snippet = true;
      if (mode === "boolean") {
        body.must = $("must").value; body.should = $("should").value;
        body.must_not = $("must_not").value;
      }
      hits = await post("/search", body);
    }
    $("status").textContent = hits.length
      ? hits.length + " hits (offset " + offset + ")"
      : "No results";
    $("results").innerHTML = hits.map(card).join("");
    $("pager").style.display = (mode === "knn" || mode === "hybrid")
      ? "none" : "flex";
    if (mode !== "knn" && mode !== "hybrid" && q.trim()) {
      const fc = await post("/facets", {query: q, cols: ["lang"],
                                        ...(lang ? {lang} : {})});
      const counts = fc.lang || {};
      $("facets").innerHTML = Object.keys(counts).length
        ? '<div class="card"><b>lang facets</b>' +
          Object.entries(counts).sort((a, b) => b[1] - a[1]).map(
            ([v, n]) => '<div class="facet"><b>' + esc(v) +
                        "</b><span>" + n + "</span></div>").join("") +
          "</div>"
        : "";
    }
  } catch (e) {
    $("status").className = "err";
    $("status").textContent = String(e.message || e);
  }
}

$("f").addEventListener("submit", (e) => { e.preventDefault(); offset = 0; run(); });
$("mode").addEventListener("change", () => {
  $("boolrow").style.display = $("mode").value === "boolean" ? "flex" : "none";
});
$("next").addEventListener("click", () => {
  offset += parseInt($("limit").value, 10) || 10; run();
});
$("prev").addEventListener("click", () => {
  offset = Math.max(0, offset - (parseInt($("limit").value, 10) || 10)); run();
});
fetch("/stats").then((r) => r.json()).then((s) => {
  $("stats").textContent = "index: " + (s.n_docs ?? "?") + " docs, " +
    (s.num_shards ?? "?") + " shards";
}).catch(() => { $("stats").textContent = "no index stats"; });
</script>
</body>
</html>
"""
