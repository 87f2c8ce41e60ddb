package core

import (
	"flag"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"lsmkv/internal/filter"
)

// A Knob is one row of the design space: one field of Options, its
// default, its legal values, the paper's axis it belongs to, whether
// Retune may move it, and whether lsmserver serves it as a flag. Open,
// Retune, the tuner's step bounds, lsmserver's engine flags, lsmctl's
// knob line and TUNING.md's knob reference all read the rows; none
// restates one (TestOneOptionsTable).
type Knob struct {
	// Name is the knob's short name, as events, lsmctl, the docs and (as
	// -Name) lsmserver spell it.
	Name string
	// Axis is the design axis: layout, movement, filter, range filter,
	// index, cache, separation, buffer or serving.
	Axis string
	// Field returns the address of the knob's field in o.
	Field func(o *Options) any
	// Default is what a zero field resolves to, unless derive computes it
	// from the rows above (Derived says how, for the docs) or off says the
	// zero was asked for (DisableCache, DisableFilters).
	Default float64
	Derived string
	derive  func(o *Options) float64
	off     func(o *Options) bool
	// A nonzero value must be at least Min or, for a Disable row, be
	// negative to turn the mechanism off; an enum row's value must be one
	// of Enum, in value order.
	Min     float64
	Disable bool
	Enum    []string
	// Live addresses the knob in Tunables when Retune may move it; Tune
	// then bounds the tuner's steps (zero: from Min up, unbounded).
	Live func(t *Tunables) any
	Tune [2]float64
	// Flag makes lsmserver serve the knob as -Name, with Usage as help.
	Flag  bool
	Usage string
}

// Knobs is the design space, one row per knob. A row whose default
// derives from others comes after them.
var Knobs = []Knob{
	{Name: "layout", Axis: "layout", Field: func(o *Options) any { return &o.Layout }, Enum: []string{string(Leveled), string(Tiered), string(LazyLeveled)}},
	{Name: "T", Axis: "layout", Field: func(o *Options) any { return &o.SizeRatio }, Default: 10, Min: 2, Live: func(t *Tunables) any { return &t.SizeRatio }, Tune: [2]float64{2, 16}},
	{Name: "K", Axis: "layout", Field: func(o *Options) any { return &o.HybridK }, Derived: "by layout", derive: func(o *Options) float64 { return o.runs(false) }, Min: 1, Live: func(t *Tunables) any { return &t.K }},
	{Name: "Z", Axis: "layout", Field: func(o *Options) any { return &o.HybridZ }, Derived: "by layout", derive: func(o *Options) float64 { return o.runs(true) }, Min: 1, Live: func(t *Tunables) any { return &t.Z }},
	{Name: "max-levels", Axis: "layout", Field: func(o *Options) any { return &o.MaxLevels }, Default: 7, Min: 2},
	{Name: "partial-compaction", Axis: "movement", Field: func(o *Options) any { return &o.PartialCompaction }},
	{Name: "file-picking", Axis: "movement", Field: func(o *Options) any { return &o.FilePicking }, Enum: []string{"round-robin", "min-overlap", "most-tombstones", "oldest"}},
	{Name: "filter", Axis: "filter", Field: func(o *Options) any { return &o.Filter }, Default: float64(filter.KindBloom), off: func(o *Options) bool { return o.filterDisabled }, Enum: []string{"none", "bloom", "blocked-bloom", "cuckoo", "ribbon"}},
	{Name: "bits/key", Axis: "filter", Field: func(o *Options) any { return &o.BitsPerKey }, Default: 10, Min: 1, Live: func(t *Tunables) any { return &t.FilterBitsPerKey }, Tune: [2]float64{4, 16}},
	{Name: "monkey-filters", Axis: "filter", Field: func(o *Options) any { return &o.MonkeyFilters }},
	{Name: "partitioned-filters", Axis: "filter", Field: func(o *Options) any { return &o.PartitionedFilters }},
	{Name: "range-filter", Axis: "range filter", Field: func(o *Options) any { return &o.RangeFilter }, Enum: []string{"none", "prefix", "surf", "rosetta", "snarf"}},
	{Name: "range-filter-bits/key", Axis: "range filter", Field: func(o *Options) any { return &o.RangeFilterBitsPerKey }, Default: 16, Min: 1},
	{Name: "prefix-length", Axis: "range filter", Field: func(o *Options) any { return &o.PrefixLength }, Default: 8, Min: 1},
	{Name: "block-size", Axis: "index", Field: func(o *Options) any { return &o.BlockSize }, Default: 4096, Min: 1},
	{Name: "block-hash-index", Axis: "index", Field: func(o *Options) any { return &o.BlockHashIndex }},
	{Name: "learned-index", Axis: "index", Field: func(o *Options) any { return &o.LearnedIndex }, Enum: []string{"none", "plr", "radix-spline"}},
	{Name: "cache-bytes", Axis: "cache", Field: func(o *Options) any { return &o.CacheBytes }, Default: 8 << 20, off: func(o *Options) bool { return o.cacheBytesSet }, Min: 1},
	{Name: "cache-clock", Axis: "cache", Field: func(o *Options) any { return &o.CacheClock }},
	{Name: "prefetch-after-compaction", Axis: "cache", Field: func(o *Options) any { return &o.PrefetchAfterCompaction }},
	{Name: "value-separation", Axis: "separation", Field: func(o *Options) any { return &o.ValueSeparation }},
	{Name: "value-threshold", Axis: "separation", Field: func(o *Options) any { return &o.ValueThreshold }, Default: 1024, Min: 1},
	{Name: "vlog-segment-bytes", Axis: "separation", Field: func(o *Options) any { return &o.VlogSegmentBytes }, Default: 64 << 20, Min: 1},
	{Name: "l0-trigger", Axis: "layout", Field: func(o *Options) any { return &o.L0CompactionTrigger }, Default: 4, Min: 1, Live: func(t *Tunables) any { return &t.L0CompactionTrigger }, Tune: [2]float64{2, 8}},
	{Name: "memtable-bytes", Axis: "buffer", Field: func(o *Options) any { return &o.MemtableBytes }, Default: 4 << 20, Min: 1},
	{Name: "two-level-memtable", Axis: "buffer", Field: func(o *Options) any { return &o.TwoLevelMemtable }},
	{Name: "disable-wal", Axis: "buffer", Field: func(o *Options) any { return &o.DisableWAL }},
	{Name: "sync-wal", Axis: "buffer", Field: func(o *Options) any { return &o.SyncWAL }},
	{Name: "max-immutable-memtables", Axis: "buffer", Field: func(o *Options) any { return &o.MaxImmutableMemtables }, Default: 2, Min: 1},
	{Name: "l0-slowdown", Axis: "buffer", Field: func(o *Options) any { return &o.L0SlowdownTrigger }, Derived: "3× l0-trigger", derive: func(o *Options) float64 { return 3 * float64(o.L0CompactionTrigger) }, Min: 1, Live: func(t *Tunables) any { return &t.L0SlowdownTrigger }, Flag: true, Usage: "L0 run count where writes start slowing"},
	{Name: "l0-stop", Axis: "buffer", Field: func(o *Options) any { return &o.L0StopTrigger }, Derived: "6× l0-trigger", derive: func(o *Options) float64 { return 6 * float64(o.L0CompactionTrigger) }, Min: 1, Live: func(t *Tunables) any { return &t.L0StopTrigger }, Flag: true, Usage: "L0 run count where writes block"},
	{Name: "slowdown-max-delay", Axis: "buffer", Field: func(o *Options) any { return &o.SlowdownMaxDelay }, Default: float64(time.Millisecond), Min: 1, Disable: true, Live: func(t *Tunables) any { return &t.SlowdownMaxDelay }, Tune: [2]float64{float64(500 * time.Microsecond), float64(20 * time.Millisecond)}},
	{Name: "debt-limit", Axis: "buffer", Field: func(o *Options) any { return &o.PendingCompactionSlowdownBytes }, Default: 64 << 20, Min: 1, Disable: true, Live: func(t *Tunables) any { return &t.PendingCompactionSlowdownBytes }},
	{Name: "compaction-rate", Axis: "movement", Field: func(o *Options) any { return &o.CompactionMaxBytesPerSec }, Min: 1, Flag: true, Usage: "combined compaction write ceiling in bytes/sec, shared by all workers (0 = unthrottled)"},
	{Name: "compaction-concurrency", Axis: "movement", Field: func(o *Options) any { return &o.CompactionConcurrency }, Default: 2, Min: 1, Flag: true, Usage: "background compaction workers"},
	{Name: "shards", Axis: "serving", Field: func(o *Options) any { return &o.Shards }, Min: 1, Flag: true, Usage: "keyspace shards (0 = adopt the database's existing count)"},
	{Name: "tune", Axis: "serving", Field: func(o *Options) any { return &o.AutoTune }, Flag: true, Usage: "run the online self-tuner (adapts layout, filter, and slowdown knobs to the live workload)"},
	{Name: "tune-interval", Axis: "serving", Field: func(o *Options) any { return &o.AutoTuneInterval }, Default: float64(10 * time.Second), Min: 1, Flag: true, Usage: "self-tuner sampling period"},
}

// value is the knob's field in o.
func (k *Knob) value(o *Options) reflect.Value { return reflect.ValueOf(k.Field(o)).Elem() }

// resolve gives the knob its default when zero, else checks it.
func (k *Knob) resolve(o *Options) error {
	v := k.value(o)
	switch x := k.num(v); {
	case v.IsZero() && k.off != nil && k.off(o):
	case v.IsZero() && k.derive != nil:
		k.set(v, k.derive(o))
	case v.IsZero():
		k.set(v, k.Default)
	case k.Enum != nil && (x < 0 || int(x) >= len(k.Enum)), x < 0 && !k.Disable, x > 0 && x < k.Min:
		return fmt.Errorf("core: %s = %v is outside its legal range (%s)", k.Name, v.Interface(), k.Range())
	}
	return nil
}

// num reads v as a number: an enum by its position in Enum.
func (k *Knob) num(v reflect.Value) float64 {
	switch {
	case v.Kind() == reflect.Bool && v.Bool():
		return 1
	case v.Kind() == reflect.Bool:
		return 0
	case v.Kind() == reflect.String:
		return float64(slices.Index(k.Enum, v.String()))
	case v.CanFloat():
		return v.Float()
	case v.CanUint():
		return float64(v.Uint())
	}
	return float64(v.Int())
}

// set stores the number x in v.
func (k *Knob) set(v reflect.Value, x float64) {
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(x != 0)
	case v.Kind() == reflect.String:
		v.SetString(k.Enum[int(x)])
	case v.CanFloat():
		v.SetFloat(x)
	case v.CanUint():
		v.SetUint(uint64(x))
	default:
		v.SetInt(int64(x))
	}
}

// Format renders the number x as a value of the knob.
func (k *Knob) Format(x float64) string {
	v := reflect.New(k.value(&Options{}).Type()).Elem()
	switch k.set(v, x); {
	case k.Enum != nil:
		return k.Enum[int(x)]
	case v.Kind() == reflect.Bool:
		return map[bool]string{false: "off", true: "on"}[v.Bool()]
	case x >= 1<<20 && int64(x)%(1<<20) == 0 && v.Type() != reflect.TypeOf(time.Duration(0)):
		return fmt.Sprintf("%d MiB", int64(x)>>20)
	}
	return fmt.Sprint(v.Interface())
}

// Range renders the row's legal values.
func (k *Knob) Range() string {
	switch {
	case k.Enum != nil:
		return strings.Join(k.Enum, ", ")
	case k.value(&Options{}).Kind() == reflect.Bool:
		return "off, on"
	}
	r := k.Format(k.Min) + ".."
	if k.Disable {
		r += "; < 0 off"
	}
	return r
}

// eachLive calls fn with each live row's field in t and in o.
func eachLive(t *Tunables, o *Options, fn func(tv, ov reflect.Value)) {
	for i := range Knobs {
		if k := &Knobs[i]; k.Live != nil {
			fn(reflect.ValueOf(k.Live(t)).Elem(), k.value(o))
		}
	}
}

// tunables reads o's live knobs.
func (o *Options) tunables() (t Tunables) {
	eachLive(&t, o, func(tv, ov reflect.Value) { tv.Set(ov) })
	return t
}

// TuneBounds returns the range the tuner steps each live knob within:
// the row's Tune bounds, else Min up (a zero hi is unbounded).
func TuneBounds() (lo, hi Tunables) {
	for i := range Knobs {
		k := &Knobs[i]
		if k.Live == nil {
			continue
		}
		b := k.Tune
		if b == [2]float64{} {
			b[0] = k.Min
		}
		k.set(reflect.ValueOf(k.Live(&lo)).Elem(), b[0])
		k.set(reflect.ValueOf(k.Live(&hi)).Elem(), b[1])
	}
	return lo, hi
}

// Describe renders t's live knobs as "name=value" pairs or, given the
// values before a move, the ones that moved as "name from->to". The
// retune and tune events and lsmctl's tuner status all print knobs
// through it.
func (t Tunables) Describe(before *Tunables) string {
	var parts []string
	for i := range Knobs {
		k := &Knobs[i]
		if k.Live == nil {
			continue
		}
		now := reflect.ValueOf(k.Live(&t)).Elem().Interface()
		if before == nil {
			parts = append(parts, fmt.Sprintf("%s=%v", k.Name, now))
		} else if was := reflect.ValueOf(k.Live(before)).Elem().Interface(); was != now {
			parts = append(parts, fmt.Sprintf("%s %v->%v", k.Name, was, now))
		}
	}
	return strings.Join(parts, " ")
}

// EngineFlags defines on fs one flag per Flag row, spelled -Name and
// defaulting to the row's default (zero for a derived one, whose usage
// says what zero derives). apply writes the parsed values into d.
func EngineFlags(fs *flag.FlagSet) (apply func(d *Design)) {
	var parsed Options
	for i := range Knobs {
		k := &Knobs[i]
		if !k.Flag {
			continue
		}
		usage := k.Usage
		if k.Derived != "" {
			usage += " (0 = " + k.Derived + ")"
		}
		switch p := k.Field(&parsed).(type) {
		case *int:
			fs.IntVar(p, k.Name, int(k.Default), usage)
		case *int64:
			fs.Int64Var(p, k.Name, int64(k.Default), usage)
		case *bool:
			fs.BoolVar(p, k.Name, k.Default != 0, usage)
		case *time.Duration:
			fs.DurationVar(p, k.Name, time.Duration(k.Default), usage)
		default:
			panic("core: no flag type for knob " + k.Name)
		}
	}
	return func(d *Design) {
		o := Options{Design: *d}
		for i := range Knobs {
			if k := &Knobs[i]; k.Flag {
				k.value(&o).Set(k.value(&parsed))
			}
		}
		*d = o.Design
	}
}
