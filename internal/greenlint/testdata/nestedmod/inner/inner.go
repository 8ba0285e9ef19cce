// Package inner lives in a nested module; wildcards from the enclosing
// module must not expand into it.
package inner
