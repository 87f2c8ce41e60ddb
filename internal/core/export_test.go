package core

import "lsmkv/internal/compaction"

// Resolve runs Open's option resolution for the external golden test,
// which imports the lsmkv presets and so cannot live in this package.
func Resolve(o Options) (Options, error) {
	err := o.resolve(false)
	return o, err
}

// Shape is the compaction design point the engine plans against.
func (o *Options) Shape() compaction.Shape { return o.shape() }
