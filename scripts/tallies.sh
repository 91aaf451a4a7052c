#!/usr/bin/env bash
# Print the ROADMAP's quality-of-design tallies from the source, one
# "name: value" line each, so a PR quotes this output (run on the parent
# and on the change) instead of hand-counted numbers. It reads gofmt-ed
# source with grep and awk; it builds and runs nothing.
# Usage: scripts/tallies.sh [repo root]   (default: the script's repo)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# nontest DIR: the non-test Go files directly in DIR.
nontest() { find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort; }
# count PATTERN FILE...: matching lines over the files.
count() { local p=$1; shift; cat "$@" | grep -cE -- "$p" || true; }
# fields TYPE FILE: the field lines of "type TYPE struct" (or the method
# lines of an interface): indented once, starting with a name.
fields() { awk -v t="$1" '$0 ~ "^type "t" (struct|interface) {" {on=1; next} on && /^}/ {exit} on && /^\t[A-Za-z_][A-Za-z0-9_, ]*[ (]/' "$2"; }

svc=$(nontest service)
echo "daemon flags (cmd/corrd): $(count '\bfs\.(String|Int|Int64|Uint64|Float64|Bool|Duration)(Var)?\(' $(nontest cmd/corrd))"
echo "service.Config fields: $(fields Config service/service.go | wc -l)"
echo "/metrics series (every corrd_* name in service/metrics.go): $(grep -ohE 'corrd_[a-z0-9_]+' service/metrics.go | sort -u | wc -l)"
echo "HTTP routes (every HandleFunc( in non-test service/): $(count 'HandleFunc\(' $svc)"
echo "Engine methods: $(fields Engine service/service.go | wc -l)"
echo "mutexes on Server: $(fields Server service/service.go | grep -cE 'sync\.(RW)?Mutex')"
echo "Server fields: $(fields Server service/service.go | wc -l)"
echo "s.mu.Lock() sites (service): $(count 's\.mu\.Lock\(\)' $svc)"
echo "WAL record types: $(count '^[[:space:]]Record[A-Za-z]+ +RecordType = ' internal/wal/wal.go)"
echo "wal.Options fields: $(fields Options internal/wal/wal.go | wc -l)"
echo "readFrame call sites (frame-walking loops, internal/wal): $(count '[^c ]readFrame\(|= readFrame\(' $(nontest internal/wal))"
echo "health failure streaks: $(fields health service/health.go | grep -cE 'Errs +atomic\.Int32')"
echo "call sites of the tenant maker (service): $(count '[.](getOrCreateTenant|tenantForWriteLocked)\(' $svc)"
echo "clock sites to inject (time.Now/NewTicker/NewTimer/Sleep/After/AfterFunc; non-test service, internal/wal, internal/replica): $(count '\btime\.(Now|NewTicker|NewTimer|Sleep|After|AfterFunc)\(' $svc $(nontest internal/wal) $(nontest internal/replica))"
echo "flags per command (cmd/*, flag. or fs. definitions):"
for dir in cmd/*/; do
	echo "  ${dir%/}: $(count '\b(flag|fs)\.(String|Int|Int64|Uint64|Float64|Bool|Duration)(Var)?\(' $(nontest "$dir"))"
done
echo "exported top-level funcs and methods per public package (non-test):"
for dir in . client service shard; do
	[ -d "$dir" ] && echo "  $dir: $(count '^func (\([^)]*\) )?[A-Z]' $(nontest "$dir"))"
done

echo "go statements per package (non-test):"
total=0 per= ttotal=0 tper=
for dir in $(find . -name '*.go' ! -path './benchmarks/*' ! -path './.*' -printf '%h\n' | sort -u); do
	files=$(nontest "$dir")
	if [ -n "$files" ]; then
		n=$(count '^\s*go (func\b|[A-Za-z_][A-Za-z0-9_.]*\()' $files)
		[ "$n" -gt 0 ] && echo "  ${dir#./}: $n"
		lines=$(cat $files | wc -l)
		total=$((total + lines))
		per="$per  ${dir#./}: $lines"$'\n'
	fi
	files=$(find "$dir" -maxdepth 1 -name '*_test.go' | sort)
	if [ -n "$files" ]; then
		lines=$(cat $files | wc -l)
		ttotal=$((ttotal + lines))
		tper="$tper  ${dir#./}: $lines"$'\n'
	fi
done
echo "non-test Go lines per package (outside benchmarks/):"
printf '%s' "$per"
echo "non-test Go lines, total: $total"
echo "test Go lines per package (outside benchmarks/):"
printf '%s' "$tper"
echo "test Go lines, total: $ttotal"
