#!/bin/sh
# The reference runs whose outputs must not move across CPU counts, installs
# and commits, each written to OUT/<name>/ by COMMAND (`python -m ghreplay.cli`
# by default). Compare two OUT trees with scripts/same_outputs.py.
#
#     sh scripts/reference_runs.sh OUT [COMMAND ...]
set -eu
out=$1 desk=$1/desk
shift
[ $# -gt 0 ] || set -- python -m ghreplay.cli
"$@" generate --preset desk --out "$desk"
"$@" run --preset desk --out "$desk" --retention --dump-memory
# a middle phase, whose update counter starts after GH-A's updates, and the last one
for phase in GH-B GH-C; do "$@" baseline --preset desk --out "$desk" --phase $phase; done
"$@" compare "$desk/curve.csv" "$desk/baseline_GH-B.csv" "$desk/baseline_GH-C.csv" --out "$desk/compare.csv"
# a greenhouse read from desk's GH-B.csv beside a generated one; the two memory strategies
# that sweep otherwise than per batch; paper shapes (window 250, hidden 32, a 10k test set)
# cut to one greenhouse
mkdir -p "$out/ext" "$out/per-element" "$out/per-sample" "$out/paper-one"
echo "{\"greenhouses\": [{\"name\": \"GH-A\"}, {\"name\": \"ext\", \"csv\": \"$desk/GH-B.csv\"}]}" > "$out/ext/spec.json"
for s in per-element per-sample; do echo "{\"memory\": {\"strategy\": \"$s\"}}" > "$out/$s/spec.json"; done
echo '{"days_per_phase": 73, "greenhouses": [{"name": "GH-A"}]}' > "$out/paper-one/spec.json"
for run in desk:ext desk:per-element desk:per-sample paper:paper-one; do
    preset=${run%:*} dir=$out/${run#*:}
    "$@" generate --preset "$preset" --spec "$dir/spec.json" --out "$dir"
    "$@" run --preset "$preset" --spec "$dir/spec.json" --out "$dir" --dump-memory
done
# full-size inputs (GH-A/B/C, 365 days): long rejection walks and all three parameter sets
"$@" generate --preset paper --out "$out/paper-inputs"
