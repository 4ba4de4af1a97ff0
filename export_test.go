package rvm

import (
	"github.com/rvm-go/rvm/internal/core"
	"github.com/rvm-go/rvm/internal/iofault"
)

// OpenOnLogDevice is Open with the log read and written through dev, a
// test's device over the file at o.LogPath.
func OpenOnLogDevice(o Options, dev iofault.Device) (*RVM, error) {
	co := o.engine()
	co.LogDevice = dev
	eng, err := core.Open(co)
	if err != nil {
		return nil, err
	}
	return &RVM{eng: eng}, nil
}
