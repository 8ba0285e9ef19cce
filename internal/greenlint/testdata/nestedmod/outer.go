// Package nestedmod is the root of a module-expansion fixture: "./..."
// from here covers sub but not inner, which is a module of its own.
package nestedmod
