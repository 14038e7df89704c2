"""Text-analysis operators: TF-IDF keyword extraction semantics."""

import math

import pytest

import ray.data

from information_retrieval_images_ray.pipelines.analysis import tfidf_top_terms


def test_tfidf_top_terms_hand_computed():
    """3-doc corpus, hand-checkable: corpus-wide terms score ln(1)=0,
    rarer terms rank higher, tf multiplies, ties break term-asc."""
    docs = ray.data.from_items([
        {"doc_id": 0, "text": "apple apple banana common"},
        {"doc_id": 1, "text": "banana cherry common"},
        {"doc_id": 2, "text": "cherry cherry cherry common"},
    ])
    out = tfidf_top_terms(docs, k=2).to_pandas().sort_values(
        ["doc_id", "rank"]).reset_index(drop=True)
    ln32 = math.log(3 / 2)
    # doc 0: apple tf=2 df=1 -> 2*ln(3); banana tf=1 df=2 -> ln(1.5)
    d0 = out[out["doc_id"] == 0]
    assert list(d0["term"]) == ["apple", "banana"]
    assert d0["tfidf_e6"].iloc[0] == int(2 * math.log(3) * 1e6 + 0.5)
    # doc 1: banana and cherry both tf=1 df=2 -> equal score, term asc
    d1 = out[out["doc_id"] == 1]
    assert list(d1["term"]) == ["banana", "cherry"]
    assert (d1["tfidf_e6"] == int(ln32 * 1e6 + 0.5)).all()
    # doc 2: cherry tf=3 beats common (ln(1)=0 exactly)
    d2 = out[out["doc_id"] == 2]
    assert list(d2["term"]) == ["cherry", "common"]
    assert d2["tfidf_e6"].iloc[1] == 0
    # k=2 everywhere, ranks dense
    assert out.groupby("doc_id")["rank"].apply(list).map(
        lambda r: r == [1, 2]).all()


def test_tfidf_empty_and_k_larger_than_vocab():
    docs = ray.data.from_items([
        {"doc_id": 0, "text": ""},
        {"doc_id": 1, "text": "only"},
    ])
    out = tfidf_top_terms(docs, k=5).to_pandas()
    assert set(out["doc_id"]) == {1}  # empty doc emits nothing
    assert list(out["term"]) == ["only"] and list(out["rank"]) == [1]


def test_split_summary_deterministic_and_order_invariant():
    """Hash-based splits: the summary equals a pandas replica of the
    md5-bucket rule and is IDENTICAL when the corpus arrives in a
    different row order / block structure (the property that makes the
    split leak-proof under resume and extend — a seeded shuffle would
    fail this)."""
    import hashlib

    import numpy as np
    import pandas as pd
    import ray.data

    from information_retrieval_images_ray.pipelines.analysis import split_summary

    rng = np.random.default_rng(3)
    langs = ["en", "fr"]
    rows = [
        {"doc_id": i, "lang": langs[i % 2],
         "text": "tok " * int(rng.integers(1, 9))}
        for i in range(300)
    ]
    fwd = split_summary(ray.data.from_items(rows))
    rev = split_summary(
        ray.data.from_items(rows[::-1]).repartition(7)
    )
    pd.testing.assert_frame_equal(fwd, rev)

    def bucket(did):
        return int(hashlib.md5(str(did).encode()).hexdigest()[:16], 16) % 100

    df = pd.DataFrame(rows)
    df["split"] = [
        "train" if bucket(d) < 80 else ("val" if bucket(d) < 90 else "test")
        for d in df["doc_id"]
    ]
    df["n_tok"] = df["text"].str.split().str.len()
    want = (
        df.groupby(["split", "lang"])
        .agg(n_docs=("doc_id", "count"), total_tokens=("n_tok", "sum"))
        .reset_index()
        .sort_values(["split", "lang"])
        .reset_index(drop=True)
        .astype({"n_docs": "int64", "total_tokens": "int64"})
    )
    pd.testing.assert_frame_equal(fwd, want)
    assert set(fwd["split"]) == {"train", "val", "test"}


def test_term_cooccurrence_window_boundary():
    """A pair at distance exactly ``window`` counts; window+1 does not;
    same-term pairs are skipped; ordering is (cnt desc, t1, t2)."""
    import ray.data

    from information_retrieval_images_ray.pipelines.analysis import (
        term_cooccurrence,
    )

    # 'a'..'z' at distance 3 (== window, counts); 'a'..'q' at 4 (excluded)
    docs = ray.data.from_items([{"doc_id": 0, "text": "a f g z q"}])
    out = term_cooccurrence(docs, window=3, k=100)
    pairs = set(zip(out["t1"], out["t2"]))
    assert ("a", "z") in pairs           # distance 3 == window
    assert ("a", "q") not in pairs       # distance 4 > window
    assert ("f", "q") in pairs           # distance 3 == window
    # identical terms never pair, at any distance
    out2 = term_cooccurrence(
        ray.data.from_items([{"doc_id": 0, "text": "b b"}]), window=3, k=10
    )
    assert len(out2) == 0


def test_pack_sequences_exact_chunking():
    """Concatenate-and-chunk math on hand-built lengths: docs straddle
    budget cuts, a zero-length doc sits exactly at its predecessor's
    end, and a bucket_width smaller than the corpus forces the
    cross-bucket offset path. doc_ids arrive unsorted and non-dense."""
    from information_retrieval_images_ray.pipelines.analysis import pack_sequences

    # token counts: id 3 -> 4, id 0 -> 3, id 7 -> 0, id 5 -> 6, id 12 -> 2
    rows = [
        {"doc_id": 3, "text": "a b c d"},
        {"doc_id": 0, "text": "x y z"},
        {"doc_id": 7, "text": ""},
        {"doc_id": 5, "text": "p q r s t u"},
        {"doc_id": 12, "text": "m n"},
    ]
    out = (
        pack_sequences(ray.data.from_items(rows), budget=5, bucket_width=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    # doc_id order: 0(len3, prev0), 3(len4, prev3), 5(len6, prev7),
    #               7(len0, prev13), 12(len2, prev13)
    assert out["doc_id"].tolist() == [0, 3, 5, 7, 12]
    assert out["doc_len"].tolist() == [3, 4, 6, 0, 2]
    assert out["seq_id"].tolist() == [0, 0, 1, 2, 2]
    assert out["seq_off"].tolist() == [0, 3, 2, 3, 3]


def test_pii_scan_planted():
    """Planted positives per class: counts, sequential redaction text,
    length and sha prefix all hand-checked; clean doc is untouched."""
    import hashlib

    from information_retrieval_images_ray.pipelines.analysis import pii_scan

    rows = [
        {"doc_id": 0, "text": "mail bob@example.com and http://x.co/a?b=1 now"},
        {"doc_id": 1, "text": "ip 10.0.255.1 phone 555-123-4567 acct 123456789"},
        {"doc_id": 2, "text": "nothing sensitive here"},
    ]
    out = pii_scan(ray.data.from_items(rows)).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert out.loc[0, ["n_email", "n_url", "n_ipv4", "n_phone", "n_id"]].tolist() == [1, 1, 0, 0, 0]
    assert out.loc[1, ["n_email", "n_url", "n_ipv4", "n_phone", "n_id"]].tolist() == [0, 0, 1, 1, 1]
    assert out.loc[2, "n_pii"] == 0
    red0 = "mail <EMAIL> and <URL> now"
    red1 = "ip <IPV4> phone <PHONE> acct <ID>"
    assert out.loc[0, "red_len"] == len(red0)
    assert out.loc[0, "red_sha16"] == hashlib.sha256(red0.encode()).hexdigest()[:16]
    assert out.loc[1, "red_sha16"] == hashlib.sha256(red1.encode()).hexdigest()[:16]
    assert out.loc[2, "red_sha16"] == hashlib.sha256(b"nothing sensitive here").hexdigest()[:16]


def test_spell_suggest_ranking():
    """Hand-built vocab: dist ascends first, df breaks ties desc,
    term asc last; beyond-max_edits terms never appear."""
    from information_retrieval_images_ray.pipelines.analysis import (
        _lev_capped,
        spell_suggest,
    )

    assert _lev_capped("kitten", "sitting", 3) == 3
    assert _lev_capped("kitten", "sitting", 2) is None
    assert _lev_capped("abc", "abc", 2) == 0

    docs = ray.data.from_items([
        {"doc_id": 0, "text": "merge merge margin"},
        {"doc_id": 1, "text": "merge merged"},
        {"doc_id": 2, "text": "merged verge"},
        {"doc_id": 3, "text": "unrelatedword"},
    ])
    out = spell_suggest(docs, words=("mergee",), max_edits=2, k=3)
    # dists: merge=1 (df2), merged=1 (df2), verge=2 (df1), margin>2
    assert out["term"].tolist() == ["merge", "merged", "verge"]
    assert out["rank"].tolist() == [1, 2, 3]
    assert out["dist"].tolist() == [1, 1, 2]
    assert out["df"].tolist() == [2, 2, 1]


def test_repetition_stats_hand_computed():
    """'a b a b a b c': top 2-gram (a,b)x3 -> 6/7; dup-5gram coverage 0.
    'x y z' x3: duplicated 5-grams cover every position -> 1.0."""
    from information_retrieval_images_ray.pipelines.analysis import repetition_stats

    docs = ray.data.from_items([
        {"doc_id": 0, "text": "a b a b a b c"},
        {"doc_id": 1, "text": "x y z x y z x y z"},
    ])
    out = repetition_stats(docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["n_tokens"].tolist() == [7, 9]
    assert out.loc[0, "top2_frac_e6"] == int(3 * 2 / 7 * 1e6 + 0.5)
    assert out.loc[0, "top3_frac_e6"] == int(2 * 3 / 7 * 1e6 + 0.5)
    assert out.loc[0, "top4_frac_e6"] == int(2 * 4 / 7 * 1e6 + 0.5)  # overlap can exceed 1
    assert out.loc[0, "dup5_frac_e6"] == 0
    assert out.loc[1, "dup5_frac_e6"] == 1_000_000


def test_quality_filter_rules():
    """Each rule trips on its own planted doc; a normal doc keeps."""
    from information_retrieval_images_ray.pipelines.analysis import quality_filter

    good = "the quick brown fox jumps over the lazy dog near the old stone wall"
    docs = ray.data.from_items([
        {"doc_id": 0, "text": good},                          # keeps
        {"doc_id": 1, "text": "too short"},                   # fails len (<10)
        {"doc_id": 2, "text": "the aa " * 10},                # fails wordlen (mean < 3)
        {"doc_id": 3, "text": "alpha bravo charlie delta echo foxtrot golf "
                               "hotel india juliet kilo"},    # fails stopword (0 stops)
        {"doc_id": 4, "text": "the spam spam " + good},       # top2 'spam spam'? no — 1 occurrence
        {"doc_id": 5, "text": ("the fox " * 12)},             # fails top2 (12 > 24/10)
        {"doc_id": 6, "text": "the " + "a b c d e f g h " * 4},  # dup5 coverage high
    ])
    out = quality_filter(docs).to_pandas().set_index("doc_id").sort_index()
    assert out.loc[0, "keep"] == 1
    assert out.loc[1, "pass_len"] == 0 and out.loc[1, "keep"] == 0
    assert out.loc[2, "pass_wordlen"] == 0
    assert out.loc[3, "pass_stop"] == 0
    assert out.loc[5, "pass_top2"] == 0
    assert out.loc[6, "pass_dup5"] == 0 and out.loc[6, "keep"] == 0


def test_source_mix_deterministic_and_rate_bounded():
    """Sampling is a pure function of (source, doc_id): same result on
    reordered input; realized rate tracks the target at n=2000."""
    from information_retrieval_images_ray.functions.hashing import md5_u64
    from information_retrieval_images_ray.pipelines.analysis import source_mix

    rows = [{"doc_id": i, "source": f"s{i % 3}"} for i in range(2000)]
    a = source_mix(ray.data.from_items(rows))
    b = source_mix(ray.data.from_items(list(reversed(rows))))
    assert a.equals(b)
    for _, r in a.iterrows():
        assert r["rate_ppm"] == 100_000 * (1 + md5_u64(r["source"]) % 9)
        # binomial(667, p): realized within ~6 sigma of target
        import math
        p = r["rate_ppm"] / 1e6
        sigma = math.sqrt(r["n_docs"] * p * (1 - p))
        assert abs(r["n_sampled"] - r["n_docs"] * p) < 6 * sigma + 1


def test_train_order_permutation_and_determinism():
    """Positions are a 0..n-1 permutation equal to the brute-force
    seeded-hash sort; input order is irrelevant; a different seed
    yields a different permutation (epoch semantics)."""
    from information_retrieval_images_ray.functions.hashing import md5_u64
    from information_retrieval_images_ray.pipelines.analysis import train_order

    ids = [3, 0, 7, 5, 12, 99, 41, 2]
    rows = [{"doc_id": i} for i in ids]
    out = train_order(ray.data.from_items(rows), seed=17).to_pandas()
    got = dict(zip(out["doc_id"], out["pos"]))
    want_order = sorted(ids, key=lambda d: (md5_u64(f"17:{d}"), d))
    assert got == {d: p for p, d in enumerate(want_order)}
    out2 = train_order(ray.data.from_items(list(reversed(rows))), seed=17).to_pandas()
    assert dict(zip(out2["doc_id"], out2["pos"])) == got
    out3 = train_order(ray.data.from_items(rows), seed=18).to_pandas()
    assert dict(zip(out3["doc_id"], out3["pos"])) != got


def test_token_counts_bpe_vs_ws():
    """Hand-checked: contractions split, punctuation runs separate,
    digit runs separate; whitespace count is the plain split."""
    from information_retrieval_images_ray.pipelines.analysis import token_counts

    docs = ray.data.from_items([
        {"doc_id": 0, "text": "it's a test, x99 done"},
        {"doc_id": 1, "text": "plain words only here"},
        {"doc_id": 2, "text": ""},
    ])
    out = token_counts(docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # "it's a test, x99 done" -> it|'s| a| test|,| x|99| done = 8 bpe, 5 ws
    assert out.loc[0, "n_ws_tokens"] == 5
    assert out.loc[0, "n_bpe_tokens"] == 8
    assert out.loc[0, "bpe_per_ws_e6"] == int(8 / 5 * 1e6 + 0.5)
    assert out.loc[1, "n_bpe_tokens"] == 4 and out.loc[1, "n_ws_tokens"] == 4
    assert out.loc[2, "n_bpe_tokens"] == 0 and out.loc[2, "bpe_per_ws_e6"] == 0


def test_hll_registers_and_estimate():
    """Registers equal the brute-force sketch of the distinct vocab;
    merging two disjoint corpora's sketches == sketch of the union
    (the mergeable-state property); estimate tracks exact within the
    ~13% expected rel-error at m=64 for a 200-term vocab."""
    from information_retrieval_images_ray.functions.hashing import md5_u64
    from information_retrieval_images_ray.pipelines.analysis import (
        HLL_M,
        hll_distinct,
        hll_registers,
    )

    words = [f"w{i}" for i in range(200)]
    half1 = " ".join(words[:100])
    half2 = " ".join(words[100:])
    docs = ray.data.from_items([
        {"doc_id": 0, "text": half1}, {"doc_id": 1, "text": half2},
    ])

    def brute(ws):
        regs = {}
        for t in ws:
            h = md5_u64(t)
            b, rest = h >> 58, h & ((1 << 58) - 1)
            rho = 59 if rest == 0 else 58 - rest.bit_length() + 1
            regs[b] = max(regs.get(b, 0), rho)
        return regs

    got = hll_registers(docs).to_pandas()
    assert dict(zip(got["bucket"], got["reg"])) == brute(words)
    # mergeability: max of the halves' sketches == union sketch
    m1, m2 = brute(words[:100]), brute(words[100:])
    merged = {b: max(m1.get(b, 0), m2.get(b, 0)) for b in set(m1) | set(m2)}
    assert merged == brute(words)

    out = hll_distinct(docs)
    assert out.loc[0, "exact_distinct"] == 200
    est = out.loc[0, "est_e6"] / 1e6
    assert abs(est - 200) / 200 < 0.4  # raw HLL, no small-range branch


def test_autocomplete_ranking():
    """df desc ranks first, term asc breaks ties, k caps, no-hit
    prefix absent."""
    from information_retrieval_images_ray.pipelines.analysis import autocomplete

    docs = ray.data.from_items([
        {"doc_id": 0, "text": "star star stone stop"},
        {"doc_id": 1, "text": "star stone"},
        {"doc_id": 2, "text": "step star"},
    ])
    out = autocomplete(docs, prefixes=("st", "zz"), k=3)
    got = out[out["prefix"] == "st"]
    # dfs: star 3, stone 2, step 1, stop 1 -> top3 = star, stone, step
    assert got["term"].tolist() == ["star", "stone", "step"]
    assert got["df"].tolist() == [3, 2, 1]
    assert "zz" not in set(out["prefix"])


def test_autocomplete_per_batch_topk_merges_exactly():
    """The per-batch top-k combiner must preserve the global top-k
    across many blocks: 60 terms matching one prefix spread over many
    docs/blocks; global winners are the highest-df terms regardless of
    which block carried them."""
    import numpy as np

    from information_retrieval_images_ray.pipelines.analysis import autocomplete

    # term pre{i} appears in (i+1) docs -> df = i+1; highest dfs win
    rows = []
    did = 0
    for i in range(60):
        for _ in range(i + 1):
            rows.append({"doc_id": did, "text": f"pre{i:02d} filler{did}"})
            did += 1
    docs = ray.data.from_items(rows).repartition(8)
    out = autocomplete(docs, prefixes=("pre",), k=5)
    assert out["term"].tolist() == [f"pre{i:02d}" for i in (59, 58, 57, 56, 55)]
    assert out["df"].tolist() == [60, 59, 58, 57, 56]
    assert out["rank"].tolist() == [1, 2, 3, 4, 5]


def _strat_ds(rows, parallelism):
    import ray.data

    return ray.data.from_items(rows, override_num_blocks=parallelism)


def _strat_brute(rows, n):
    from information_retrieval_images_ray.pipelines.dedup import _md5_60

    by_g: dict[str, list] = {}
    for r in rows:
        if r["lang"] is None:
            continue
        by_g.setdefault(r["lang"], []).append(
            (_md5_60(r["text"] or ""), r["doc_id"]))
    out = []
    for g in sorted(by_g):
        for rank, (h, d) in enumerate(sorted(by_g[g])[:n], start=1):
            out.append((g, rank, d, h))
    return out


@pytest.mark.parametrize("parallelism", [1, 4])
def test_stratified_sample_matches_brute(parallelism):
    from information_retrieval_images_ray.pipelines.analysis import (
        stratified_sample,
    )

    rows = [
        {"doc_id": i, "lang": ["en", "fr", "de"][i % 3],
         "text": f"doc number {i} body {i * 7 % 13}"}
        for i in range(60)
    ] + [{"doc_id": 100, "lang": None, "text": "groupless"}]
    out = stratified_sample(_strat_ds(rows, parallelism), n_per_group=5)
    got = list(out.itertuples(index=False, name=None))
    assert got == _strat_brute(rows, 5)
    # per-group count = min(n, group size); null-lang row excluded
    assert len(out) == 15 and set(out["lang"]) == {"en", "fr", "de"}


def test_stratified_sample_growth_stable():
    """Adding docs displaces a sampled doc only by hashing below it —
    the sample of the grown corpus is the n smallest of the union."""
    from information_retrieval_images_ray.pipelines.analysis import (
        stratified_sample,
    )

    base = [{"doc_id": i, "lang": "en", "text": f"alpha {i}"}
            for i in range(30)]
    extra = [{"doc_id": 100 + i, "lang": "en", "text": f"beta {i}"}
             for i in range(10)]
    s1 = stratified_sample(_strat_ds(base, 2), n_per_group=8)
    s2 = stratified_sample(_strat_ds(base + extra, 3), n_per_group=8)
    assert list(s2.itertuples(index=False, name=None)) == \
        _strat_brute(base + extra, 8)
    # survivors keep their relative order
    kept = [d for d in s1["doc_id"] if d in set(s2["doc_id"])]
    order2 = [d for d in s2["doc_id"] if d in set(kept)]
    assert kept == order2


def test_distinctive_terms_log_odds():
    """Hand-built: each source's marker word wins rank 1 with the
    exact add-one log-odds value; shared filler never outranks it."""
    import math

    from information_retrieval_images_ray.pipelines.analysis import distinctive_terms

    docs = ray.data.from_items([
        {"source": "a", "text": "zebra zebra common common"},
        {"source": "b", "text": "yak common common"},
    ])
    out = distinctive_terms(docs, k=2)
    top = out[out["rank"] == 1].set_index("source")
    assert top.loc["a", "term"] == "zebra" and top.loc["b", "term"] == "yak"
    # source a: zebra c_s=2 tot_s=4; rest: c_r=0 rest_tot=3
    want = math.log(3 / 3) - math.log(1 / 4)
    assert top.loc["a", "lor_e6"] == int(want * 1e6 + 0.5)


def test_length_histogram_buckets():
    """Hand-built: docs of 3/12/15/25 tokens with width 10 land in
    buckets 0/10/10/20 with exact token totals."""
    from information_retrieval_images_ray.pipelines.analysis import length_histogram

    docs = ray.data.from_items([
        {"doc_id": 0, "text": "a " * 3},
        {"doc_id": 1, "text": "b " * 12},
        {"doc_id": 2, "text": "c " * 15},
        {"doc_id": 3, "text": "d " * 25},
    ])
    out = length_histogram(docs, bucket_width=10)
    assert out["bucket_lo"].tolist() == [0, 10, 20]
    assert out["n_docs"].tolist() == [1, 2, 1]
    assert out["total_tokens"].tolist() == [3, 27, 25]


def test_quality_filter_rates_by_lang():
    """Keep decisions aggregate per lang with exact e6 rates."""
    from information_retrieval_images_ray.pipelines.analysis import (
        quality_filter_rates,
    )

    good = "the quick brown fox jumps over the lazy dog near the old stone wall"
    docs = ray.data.from_items([
        {"doc_id": 0, "text": good, "lang": "en"},
        {"doc_id": 1, "text": "too short", "lang": "en"},  # fails len
        {"doc_id": 2, "text": good, "lang": "fr"},
    ])
    out = quality_filter_rates(docs).set_index("lang")
    assert out.loc["en", "n_docs"] == 2 and out.loc["en", "n_keep"] == 1
    assert out.loc["en", "keep_rate_e6"] == 500000
    assert out.loc["fr", "keep_rate_e6"] == 1000000


def test_percolate_conjunctive_routing():
    """A doc routes to a subscription iff it holds EVERY term; the
    empty-terms subscription case and a never-matching set covered."""
    import ray.data

    from information_retrieval_images_ray.pipelines.analysis import percolate

    rows = [
        {"doc_id": 0, "text": "merge sort now"},
        {"doc_id": 1, "text": "merge only"},
        {"doc_id": 2, "text": "sort merge window"},
        {"doc_id": 3, "text": ""},
    ]
    subs = [
        {"qid": 1, "query": "merge sort"},
        {"qid": 2, "query": "window"},
        {"qid": 3, "query": "zebra"},
    ]
    out = percolate(
        ray.data.from_items(rows, override_num_blocks=2), subs
    ).to_pandas()
    got = sorted(zip(out["qid"], out["doc_id"]))
    assert got == [(1, 0), (1, 2), (2, 2)]


def test_bigram_lm_hand_computed():
    """Integer-exact conditional probabilities on a 3-doc corpus:
    c(a,b)=2, c(a,c)=1, c1(a)=3 -> p_e6(a,b) = (4e6+3)//6 = 666667,
    p_e6(a,c) = (2e6+3)//6 = 333333; a 1-token doc scores zeros."""
    import ray.data

    from information_retrieval_images_ray.pipelines.analysis import bigram_lm_scores

    docs = ray.data.from_items([
        {"doc_id": 0, "text": "a b"},
        {"doc_id": 1, "text": "a c"},
        {"doc_id": 2, "text": "a b"},
        {"doc_id": 3, "text": "x"},
    ])
    out = bigram_lm_scores(docs)
    got = {int(r.doc_id): (int(r.n_bigrams), int(r.sum_p_e6), int(r.avg_p_e6))
           for r in out.itertuples()}
    assert got == {
        0: (1, 666667, 666667),
        1: (1, 333333, 333333),
        2: (1, 666667, 666667),
        3: (0, 0, 0),
    }


def test_bigram_lm_multi_bigram_doc():
    """Sum and integer-floor average across a doc's bigrams: doc
    'a b a' has bigrams (a,b) and (b,a); with c1(a)=c1(b)=... derived
    from the whole corpus the avg is sum // n."""
    import ray.data

    from information_retrieval_images_ray.pipelines.analysis import bigram_lm_scores

    docs = ray.data.from_items([{"doc_id": 0, "text": "a b a"}])
    out = bigram_lm_scores(docs)
    # c(a,b)=1, c(b,a)=1, c1(a)=1, c1(b)=1 -> each p_e6 = 1_000_000
    assert out.iloc[0].tolist() == [0, 2, 2_000_000, 1_000_000]


def test_length_quartiles_ntile_split():
    """NTILE semantics: 6 docs over 4 tiles -> sizes 2,2,1,1 (first
    n%k tiles take the extra row); ties in token count order by
    doc_id; fewer docs than tiles emits one-doc tiles only."""
    import ray.data

    from information_retrieval_images_ray.pipelines.analysis import length_quartiles

    texts = ["a", "a b", "a b c", "a b c d", "a b c d e", "a b c d e f"]
    docs = ray.data.from_items(
        [{"doc_id": i, "text": t, "lang": "en"} for i, t in enumerate(texts)]
        + [{"doc_id": 10, "text": "x y", "lang": "fr"},
           {"doc_id": 11, "text": "x", "lang": "fr"}]
    )
    out = length_quartiles(docs, tiles=4)
    en = out[out["lang"] == "en"]
    assert en["n_docs"].tolist() == [2, 2, 1, 1]
    assert en["min_tokens"].tolist() == [1, 3, 5, 6]
    assert en["max_tokens"].tolist() == [2, 4, 5, 6]
    fr = out[out["lang"] == "fr"]
    assert fr["n_docs"].tolist() == [1, 1]
    assert fr["min_tokens"].tolist() == [1, 2]


def test_dup_rate_by_source():
    """Integer-exact rates: src_a has 3 docs / 2 distinct (rate 1/3),
    src_b is all distinct (rate 0)."""
    import ray.data

    from information_retrieval_images_ray.pipelines.analysis import dup_rate_by_source

    docs = ray.data.from_items([
        {"doc_id": 0, "text": "same text", "source": "src_a"},
        {"doc_id": 1, "text": "same text", "source": "src_a"},
        {"doc_id": 2, "text": "other", "source": "src_a"},
        {"doc_id": 3, "text": "x", "source": "src_b"},
        {"doc_id": 4, "text": "y", "source": "src_b"},
    ])
    out = dup_rate_by_source(docs)
    got = {r.source: (int(r.n_docs), int(r.n_distinct), int(r.dup_rate_e6))
           for r in out.itertuples()}
    assert got == {"src_a": (3, 2, 333333), "src_b": (2, 2, 0)}


def test_vocab_growth_curve():
    """First-seen buckets cumsum into the growth curve; a bucket with
    no new terms still appears (flat segment)."""
    import ray.data

    from information_retrieval_images_ray.pipelines.analysis import vocab_growth

    docs = ray.data.from_items([
        {"doc_id": 0, "text": "a b"},        # bucket 0: a, b
        {"doc_id": 1, "text": "a b"},
        {"doc_id": 2, "text": "a c"},        # bucket 1: c
        {"doc_id": 3, "text": "a"},
        {"doc_id": 4, "text": "b c"},        # bucket 2: nothing new
        {"doc_id": 6, "text": "a d"},        # bucket 3: d
    ])
    out = vocab_growth(docs, bucket=2)
    assert out["up_to_doc"].tolist() == [2, 4, 6, 8]
    assert out["vocab_size"].tolist() == [2, 3, 3, 4]


def test_hll_by_group_grouped_sketch():
    """Per-group HLL: a single-group corpus reproduces the global
    sketch's numbers exactly (grouped == global when there is one
    group); multi-group exact counts match a pandas replica and each
    group's registers are independent (union of groups' vocabularies
    would give a LARGER global estimate than either group's)."""
    import ray

    from information_retrieval_images_ray.pipelines.analysis import (
        hll_by_group, hll_distinct,
    )

    rows = [
        {"doc_id": 0, "text": "alpha beta gamma", "lang": "en"},
        {"doc_id": 1, "text": "beta delta", "lang": "en"},
        {"doc_id": 2, "text": "uno dos tres uno", "lang": "es"},
        {"doc_id": 3, "text": "dos cuatro", "lang": "es"},
    ]
    ds = ray.data.from_items(rows)
    out = hll_by_group(ds, key="lang").set_index("lang")
    assert out.loc["en", "exact_distinct"] == 4   # alpha beta gamma delta
    assert out.loc["es", "exact_distinct"] == 4   # uno dos tres cuatro

    en_only = ray.data.from_items([r for r in rows if r["lang"] == "en"])
    glob = hll_distinct(en_only)
    assert int(out.loc["en", "est_e6"]) == int(glob["est_e6"].iloc[0])
    assert int(out.loc["en", "n_buckets_hit"]) == int(
        glob["n_buckets_hit"].iloc[0]
    )


def test_doc_token_entropy_hand_computed():
    """Uniform doc -> log2(n) bits; single-repeated-token doc -> 0;
    empty doc -> 0 with zero counts; 3:1 skew -> 0.811278 bits."""
    import math

    import ray

    from information_retrieval_images_ray.pipelines.analysis import (
        doc_token_entropy,
    )

    rows = [
        {"doc_id": 0, "text": "a b c d"},        # uniform 4 -> 2.0 bits
        {"doc_id": 1, "text": "x x x x"},        # degenerate -> 0
        {"doc_id": 2, "text": ""},               # empty -> 0, n=0
        {"doc_id": 3, "text": "y y y z"},        # H = .75*log2(4/3)+.25*2
    ]
    out = doc_token_entropy(ray.data.from_items(rows)).to_pandas().set_index("doc_id")
    assert out.loc[0, "entropy_e6"] == 2_000_000
    assert out.loc[0, "n_tokens"] == 4 and out.loc[0, "distinct_terms"] == 4
    assert out.loc[1, "entropy_e6"] == 0 and out.loc[1, "distinct_terms"] == 1
    assert out.loc[2, "entropy_e6"] == 0 and out.loc[2, "n_tokens"] == 0
    want = 0.75 * math.log2(4 / 3) + 0.25 * math.log2(4)
    assert abs(out.loc[3, "entropy_e6"] - round(want * 1e6)) <= 1


def test_source_kl_divergence_hand_computed():
    """A source matching the corpus mix scores ~0; a divergent source
    scores the hand-computed D(P_s || P_corpus)."""
    import math

    import ray

    from information_retrieval_images_ray.pipelines.analysis import (
        source_kl_divergence,
    )

    # corpus tokens: a x6, b x2 -> P_c = (0.75, 0.25)
    # s1 = "a a a b": P_s1 = (0.75, 0.25) == P_c -> KL 0
    # s2 = "a a a b": same -> the two sources ARE the corpus mix
    rows = [
        {"doc_id": 0, "text": "a a a b", "source": "s1"},
        {"doc_id": 1, "text": "a a a b", "source": "s2"},
    ]
    out = source_kl_divergence(
        ray.data.from_items(rows)).set_index("source")
    assert int(out.loc["s1", "kl_e6"]) == 0
    assert int(out.loc["s2", "kl_e6"]) == 0

    # skewed: s1 all-a, s2 all-b; corpus = (0.5, 0.5) with equal sizes
    rows = [
        {"doc_id": 0, "text": "a a a a", "source": "s1"},
        {"doc_id": 1, "text": "b b b b", "source": "s2"},
    ]
    out = source_kl_divergence(
        ray.data.from_items(rows)).set_index("source")
    want = round(math.log(2.0) * 1e6)   # D(delta || uniform) = ln 2
    assert abs(int(out.loc["s1", "kl_e6"]) - want) <= 1
    assert abs(int(out.loc["s2", "kl_e6"]) - want) <= 1
    assert int(out.loc["s1", "n_tokens"]) == 4
    assert int(out.loc["s1", "n_terms"]) == 1


def test_null_and_empty_group_keys_match_oracle_sql():
    """A NULL group key emits no row and "" stays its own group, in
    ``hll_by_group`` and ``source_kl_divergence`` exactly as in their
    oracle SQL; NULL-source tokens still count in the KL corpus
    totals."""
    import duckdb
    import pandas as pd
    import ray

    import __ray_entry__ as E
    from information_retrieval_images_ray.pipelines.analysis import (
        hll_by_group, source_kl_divergence,
    )

    texts = ["alpha beta gamma", "beta delta delta", "uno dos tres uno",
             "dos cuatro alpha", "zeta eta alpha alpha", "theta beta"]
    keys = ["en", None, "", "es", None, ""]
    for key, fn, sql in [
        ("lang", hll_by_group, E._HLL_BY_LANG_SQL),
        ("source", source_kl_divergence, E._SOURCE_KL_SQL),
    ]:
        docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts,
                             key: keys})
        con = duckdb.connect()
        con.register("documents", docs)
        want = con.sql(sql).df().sort_values(key).reset_index(drop=True)
        got = fn(ray.data.from_pandas(docs), key=key)
        got = got.sort_values(key).reset_index(drop=True)
        assert got[key].tolist() == ["", "en", "es"], key
        assert got.astype("object").values.tolist() == \
            want[list(got.columns)].astype("object").values.tolist(), key


def test_tfidf_cosine_pairs_vs_dense():
    """The sparse shared-term pipeline equals a dense numpy TF-IDF
    cosine over the pruned term space; df-pruning excludes df=1 and
    df>max_df terms from BOTH the metric and candidate generation."""
    import math

    import ray

    from information_retrieval_images_ray.pipelines.analysis import (
        tfidf_cosine_pairs,
    )

    rows = [
        {"doc_id": 0, "text": "apple banana cherry apple"},
        {"doc_id": 1, "text": "apple banana date"},
        {"doc_id": 2, "text": "cherry date egg egg"},
        {"doc_id": 3, "text": "fig grape"},            # all df=1 -> no pairs
    ]
    out = tfidf_cosine_pairs(
        ray.data.from_items(rows), max_df=3, min_df=2, threshold=0.0
    )
    # dense reference over pruned vocab (df in [2, 3])
    toks = {r["doc_id"]: r["text"].split() for r in rows}
    df = {}
    for ts in toks.values():
        for t in set(ts):
            df[t] = df.get(t, 0) + 1
    vocab = sorted(t for t, d in df.items() if 2 <= d <= 3)
    import numpy as np

    def vec(ts):
        return np.array([
            ts.count(t) * math.log(4.0 / df[t]) for t in vocab
        ])

    got = {(r.doc_a, r.doc_b): r.cos_e6 / 1e6 for r in out.itertuples()}
    for a in range(4):
        for b in range(a + 1, 4):
            va, vb = vec(toks[a]), vec(toks[b])
            dot = float(va @ vb)
            if dot <= 0:
                assert (a, b) not in got, (a, b)
                continue
            want = dot / (np.linalg.norm(va) * np.linalg.norm(vb))
            assert abs(got[(a, b)] - want) < 1e-4, (a, b, got.get((a, b)), want)
    assert all(r.doc_a != 3 and r.doc_b != 3 for r in out.itertuples())

    # a max_df above the hot-term cap is rejected: a dropped group
    # would still count in its members' norms
    import pytest

    with pytest.raises(ValueError, match="max_group"):
        tfidf_cosine_pairs(
            ray.data.from_items(rows), max_df=3, min_df=2, threshold=0.0,
            max_group=1,
        )


def test_length_entropy_correlation_moments():
    """The moments-sketch correlation equals numpy's corrcoef on the
    same (n_tokens, entropy_e6) columns; partition count must not
    change the result (add-mergeable partials)."""
    import numpy as np
    import ray

    from information_retrieval_images_ray.pipelines.analysis import (
        doc_token_entropy, length_entropy_correlation,
    )

    rows = [
        {"doc_id": 0, "text": "a b c d e f"},
        {"doc_id": 1, "text": "a a a a"},
        {"doc_id": 2, "text": "x y x y x y x y"},
        {"doc_id": 3, "text": "p q r s p q r s t u v w"},
        {"doc_id": 4, "text": "m"},
    ]
    ds = ray.data.from_items(rows)
    ent = doc_token_entropy(ds).to_pandas().sort_values("doc_id")
    want = np.corrcoef(ent["n_tokens"], ent["entropy_e6"])[0, 1]
    out1 = length_entropy_correlation(ds)
    out5 = length_entropy_correlation(ray.data.from_items(rows).repartition(5))
    assert int(out1["n_docs"].iloc[0]) == 5
    assert abs(int(out1["r_e6"].iloc[0]) - round(want * 1e6)) <= 1
    assert out1.equals(out5)  # partition-count invariance


def test_length_entropy_correlation_exact_past_int64(monkeypatch):
    """Moment sums past int64 stay exact: five docs whose y^2 is
    ~4e18 each (one fits int64, their sum does not) give the Pearson r
    of exact integer arithmetic, not of a wrapped int64 sum."""
    import numpy as np
    import ray

    from information_retrieval_images_ray.pipelines import analysis

    xs = [3, 7, 11, 20, 41]
    ys = [2_000_000_000 + 37 * x * x for x in xs]
    fake = ray.data.from_items(
        [{"n_tokens": x, "entropy_e6": y} for x, y in zip(xs, ys)],
        override_num_blocks=5,
    )
    monkeypatch.setattr(analysis, "doc_token_entropy", lambda ds, tok: fake)
    assert sum(y * y for y in ys) > np.iinfo(np.int64).max

    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sx2, sy2 = sum(x * x for x in xs), sum(y * y for y in ys)
    num = float(n * sxy - sx * sy)
    den = np.sqrt(float(n * sx2 - sx * sx) * float(n * sy2 - sy * sy))
    want = int(np.floor(num / den * 1e6 + 0.5))

    out = analysis.length_entropy_correlation(ray.data.from_items([{"text": ""}]))
    assert int(out["n_docs"].iloc[0]) == n
    assert int(out["r_e6"].iloc[0]) == want


def test_tfidf_related_docs_ranks():
    """Symmetrized neighbors: each member of a similar pair lists the
    other; ranks are dense per doc with (cos desc, neighbor asc) ties;
    k truncates."""
    import ray

    from information_retrieval_images_ray.pipelines.analysis import (
        tfidf_related_docs,
    )

    rows = [
        {"doc_id": 0, "text": "apple banana cherry apple"},
        {"doc_id": 1, "text": "apple banana date"},
        {"doc_id": 2, "text": "cherry date egg egg"},
    ]
    out = tfidf_related_docs(
        ray.data.from_items(rows), k=2, max_df=3, min_df=2, threshold=0.0
    )
    by_doc = {d: g for d, g in out.groupby("doc_id")}
    # symmetry: 0 lists 1 and 1 lists 0
    assert 1 in set(by_doc[0]["neighbor_id"])
    assert 0 in set(by_doc[1]["neighbor_id"])
    for d, g in by_doc.items():
        assert list(g["rank"]) == list(range(1, len(g) + 1))
        cos = list(g["cos_e6"])
        assert cos == sorted(cos, reverse=True)
        assert len(g) <= 2
