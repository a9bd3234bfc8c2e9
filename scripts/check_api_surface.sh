#!/usr/bin/env bash
# Public-API golden-file check.
#
# Regenerates the `cargo doc` item listing of every flowlut crate (the
# facade plus all workspace members; vendored shims excluded) and diffs
# it against the committed snapshot at docs/api_surface.txt. CI runs this
# so any change to the public surface — a renamed trait, a dropped
# method's page, a new type — shows up as a reviewable diff instead of a
# silent break.
#
# Usage:
#   scripts/check_api_surface.sh            # verify against the snapshot
#   scripts/check_api_surface.sh --update   # rewrite the snapshot
#
# The listing is derived from rustdoc's per-crate all.html ("list of all
# items"): hrefs are normalised to `crate::module::kind.Name` lines and
# sorted. Each public struct's public fields follow, read from the
# `structfield.<name>` anchors of its page, as
# `crate::module::struct.Name::field` lines. A config field is a setting
# a caller can vary, so a field diff is a knob diff: a new knob shows up
# here even when no item changes. The format is stable for a pinned
# toolchain; if a rustdoc upgrade ever changes it wholesale, re-run with
# --update in the same change that bumps the toolchain.

set -euo pipefail
cd "$(dirname "$0")/.."

SNAPSHOT=docs/api_surface.txt

cargo doc --workspace --no-deps --quiet

listing() {
    for all in target/doc/flowlut/all.html target/doc/flowlut_*/all.html; do
        [ -f "$all" ] || continue
        dir=$(dirname "$all")
        crate=$(basename "$dir")
        grep -o 'href="[^"]*"' "$all" |
            sed -e 's/^href="//' -e 's/"$//' |
            grep -v 'static\.files' |
            grep -vE '^(#|https?:|\.\./|index\.html)' |
            while read -r page; do
                item="${crate}::$(printf '%s' "$page" | sed -e 's|\.html$||' -e 's|/|::|g')"
                echo "$item"
                case "$page" in
                    struct.* | */struct.*)
                        { grep -o 'id="structfield\.[^"]*"' "$dir/$page" || true; } |
                            sed -e 's/^id="structfield\.//' -e 's/"$//' -e "s|^|${item}::|"
                        ;;
                esac
            done
    done | LC_ALL=C sort -u
}

if [ "${1:-}" = "--update" ]; then
    mkdir -p "$(dirname "$SNAPSHOT")"
    listing > "$SNAPSHOT"
    echo "wrote $(wc -l < "$SNAPSHOT") public items to $SNAPSHOT"
    exit 0
fi

if [ ! -f "$SNAPSHOT" ]; then
    echo "error: $SNAPSHOT missing — run scripts/check_api_surface.sh --update" >&2
    exit 1
fi

if ! diff -u "$SNAPSHOT" <(listing); then
    cat >&2 <<'EOF'

error: the public API surface differs from the committed snapshot.
If the change is deliberate, regenerate it with
    scripts/check_api_surface.sh --update
and commit the result alongside your change.
EOF
    exit 1
fi
echo "API surface matches $SNAPSHOT ($(wc -l < "$SNAPSHOT") items)"
