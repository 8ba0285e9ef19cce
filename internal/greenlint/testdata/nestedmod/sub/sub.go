// Package sub is part of the enclosing module, so wildcards reach it.
package sub
