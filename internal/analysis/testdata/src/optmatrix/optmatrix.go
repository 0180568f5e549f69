// Package optmatrix exercises the optmatrix analyzer. The test
// type-checks it under the import path seep, the package the analyzer
// gates on.
package optmatrix

// Option mirrors the root package's functional-option type.
type Option func(*runtimeConfig)

type restrictedOption struct {
	name    string
	accepts []string
}

type runtimeConfig struct {
	seed       int64
	workers    int
	wire       string
	restricted []restrictedOption
}

func (c *runtimeConfig) restrict(name string, note string, accepts ...string) {
	c.restricted = append(c.restricted, restrictedOption{name: name, accepts: accepts})
}

var universalOptions = []string{
	"WithSeed",
	"WithBoth", // want `option WithBoth is both restricted \(c\.restrict\) and listed in universalOptions`
	"WithGone", // want `universalOptions lists "WithGone" but no exported option constructor`
}

// WithSeed is universal: listed, no restrict. Clean.
func WithSeed(seed int64) Option {
	return func(c *runtimeConfig) { c.seed = seed }
}

// WithWorkers registers itself correctly. Clean.
func WithWorkers(n int) Option {
	return func(c *runtimeConfig) {
		c.workers = n
		c.restrict("WithWorkers", "", "dist")
	}
}

// WithWire registers under a stale name.
func WithWire(name string) Option {
	return func(c *runtimeConfig) {
		c.wire = name
		c.restrict("WithWireFormat", "", "dist") // want `c\.restrict registers "WithWireFormat" from inside WithWire`
	}
}

// WithOrphan appears in neither registry.
func WithOrphan(n int) Option { // want `option WithOrphan neither calls c\.restrict\("WithOrphan", \.\.\.\) nor appears in universalOptions`
	return func(c *runtimeConfig) { c.workers = n }
}

// WithBoth is restricted and listed universal at once; the diagnostic
// lands on the universalOptions entry above, where the stale listing
// lives.
func WithBoth(n int) Option {
	return func(c *runtimeConfig) {
		c.workers = n
		c.restrict("WithBoth", "", "dist")
	}
}

// withLocal is unexported: not part of the public matrix. Clean.
func withLocal(n int) Option {
	return func(c *runtimeConfig) { c.workers = n }
}

// WithHelper returns something else entirely. Clean.
func WithHelper(n int) int { return n }
