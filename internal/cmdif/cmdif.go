// Package cmdif defines Harmonia's command-based hardware-software
// interface (§3.3.3): a packet-format command with version, header and
// payload lengths in 4-byte units, source/destination controller IDs,
// the module operation code (RBB ID, instance ID, command code),
// physical-interface options, payload data and a checksum — Fig. 9.
package cmdif

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the current command format revision.
const Version = 1

// Code is a command code: the behavior-level control operation.
type Code uint16

// Common command codes (Fig. 9) plus the extended set the unified
// control kernel supports.
const (
	StatusRead  Code = 0x0000
	StatusWrite Code = 0x0001
	ModuleInit  Code = 0x0002
	ModuleReset Code = 0x0003
	TableWrite  Code = 0x0004
	TableRead   Code = 0x0005
	StatsRead   Code = 0x0006
	FlashErase  Code = 0x0007
	TimeCount   Code = 0x0008
)

// String names the command code.
func (c Code) String() string {
	switch c {
	case StatusRead:
		return "status-read"
	case StatusWrite:
		return "status-write"
	case ModuleInit:
		return "module-init"
	case ModuleReset:
		return "module-reset"
	case TableWrite:
		return "table-write"
	case TableRead:
		return "table-read"
	case StatsRead:
		return "stats-read"
	case FlashErase:
		return "flash-erase"
	case TimeCount:
		return "time-count"
	default:
		return fmt.Sprintf("code(%#04x)", uint16(c))
	}
}

// Source controller IDs: distinct host software controllers (§3.3.3).
const (
	SrcApplication uint8 = 0x01
	SrcBMC         uint8 = 0x02
	SrcCtrlTool    uint8 = 0x03
)

// Destination IDs: hardware module classes.
const (
	DstUCK   uint8 = 0x00 // the control kernel itself
	DstShell uint8 = 0x01
	DstRole  uint8 = 0x02
)

// headerWords is the fixed header size: three 32-bit words (version/
// lengths/IDs, module operation code, options) — HdLen = 3.
const headerWords = 3

// MaxPayloadWords bounds the Data field (8-bit PayloadLen field).
const MaxPayloadWords = 255

// Packet is one command or response.
type Packet struct {
	Version    uint8 // 4 bits on the wire
	SrcID      uint8
	DstID      uint8
	RBBID      uint8
	InstanceID uint8
	Code       Code
	Options    uint32
	Data       []uint32
}

// Marshalling errors.
var (
	ErrTruncated = errors.New("cmdif: packet truncated")
	ErrChecksum  = errors.New("cmdif: checksum mismatch")
	ErrVersion   = errors.New("cmdif: unsupported version")
	ErrTooLarge  = errors.New("cmdif: payload exceeds 255 words")
)

// WireBytes reports the marshalled size: header + payload + checksum.
func (p *Packet) WireBytes() int { return (headerWords+len(p.Data))*4 + 4 }

// checksum32 is the ones-complement sum over 32-bit words.
func checksum32(words []uint32) uint32 {
	var sum uint64
	for _, w := range words {
		sum += uint64(w)
	}
	for sum>>32 != 0 {
		sum = (sum & 0xffffffff) + (sum >> 32)
	}
	return ^uint32(sum)
}

// Validate reports whether the packet fits its wire fields: a payload
// of at most MaxPayloadWords words and a 4-bit version. Marshal fails
// with the same errors, so a sender that only needs WireBytes can
// check the packet without serializing it.
func (p *Packet) Validate() error {
	if len(p.Data) > MaxPayloadWords {
		return ErrTooLarge
	}
	if p.Version > 0xf {
		return fmt.Errorf("cmdif: version %d exceeds 4 bits", p.Version)
	}
	return nil
}

// words serializes the packet's header+payload into 32-bit words
// (checksum excluded).
func (p *Packet) words() ([]uint32, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w := make([]uint32, 0, headerWords+len(p.Data))
	w0 := uint32(p.Version&0xf)<<28 |
		uint32(headerWords&0xf)<<24 |
		uint32(len(p.Data)&0xff)<<16 |
		uint32(p.SrcID)<<8 |
		uint32(p.DstID)
	w = append(w, w0)
	w1 := uint32(p.RBBID)<<24 | uint32(p.InstanceID)<<16 | uint32(p.Code)
	w = append(w, w1)
	w = append(w, p.Options)
	w = append(w, p.Data...)
	return w, nil
}

// Marshal serializes the packet with its checksum appended.
func (p *Packet) Marshal() ([]byte, error) {
	w, err := p.words()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, (len(w)+1)*4)
	for _, word := range w {
		buf = binary.BigEndian.AppendUint32(buf, word)
	}
	buf = binary.BigEndian.AppendUint32(buf, checksum32(w))
	return buf, nil
}

// Unmarshal parses a packet, validating lengths and checksum. The
// header and payload lengths delimit the command boundary, so packets
// can be parsed from a contiguous command stream (parsing step 3 of the
// §3.3.3 walkthrough); the remainder is returned.
func Unmarshal(b []byte) (p *Packet, rest []byte, err error) {
	if len(b) < (headerWords+1)*4 {
		return nil, b, ErrTruncated
	}
	w0 := binary.BigEndian.Uint32(b)
	version := uint8(w0 >> 28)
	hdLen := int(w0 >> 24 & 0xf)
	payLen := int(w0 >> 16 & 0xff)
	if version != Version {
		return nil, b, fmt.Errorf("%w: %d", ErrVersion, version)
	}
	if hdLen < headerWords {
		return nil, b, fmt.Errorf("cmdif: header length %d too small", hdLen)
	}
	total := (hdLen + payLen + 1) * 4
	if len(b) < total {
		return nil, b, ErrTruncated
	}
	words := make([]uint32, hdLen+payLen)
	for i := range words {
		words[i] = binary.BigEndian.Uint32(b[i*4:])
	}
	gotSum := binary.BigEndian.Uint32(b[(hdLen+payLen)*4:])
	if gotSum != checksum32(words) {
		return nil, b, ErrChecksum
	}
	w1 := words[1]
	p = &Packet{
		Version:    version,
		SrcID:      uint8(w0 >> 8),
		DstID:      uint8(w0),
		RBBID:      uint8(w1 >> 24),
		InstanceID: uint8(w1 >> 16),
		Code:       Code(w1),
		Options:    words[2],
		Data:       append([]uint32(nil), words[hdLen:hdLen+payLen]...),
	}
	return p, b[total:], nil
}

// Response builds a reply to p carrying data: source and destination
// swap so the driver can deliver it to the issuing controller (§3.3.3
// step 7).
func (p *Packet) Response(data []uint32) *Packet {
	return &Packet{
		Version:    p.Version,
		SrcID:      p.DstID,
		DstID:      p.SrcID,
		RBBID:      p.RBBID,
		InstanceID: p.InstanceID,
		Code:       p.Code,
		Options:    p.Options,
		Data:       data,
	}
}

// New returns a command packet addressed to (rbbID, instanceID) with
// the current version and the application source ID.
func New(rbbID, instanceID uint8, code Code, data ...uint32) *Packet {
	return &Packet{
		Version:    Version,
		SrcID:      SrcApplication,
		DstID:      DstShell,
		RBBID:      rbbID,
		InstanceID: instanceID,
		Code:       code,
		Data:       data,
	}
}
