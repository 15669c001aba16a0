package models

import "reflect"

// TrainingMemory reports what m holds that only training needs: how many
// traces it has encodings cached for, and whether its training step holds
// any memory (a forest, arenas, transposes, the head's input or tasks).
func (m *Prestroid) TrainingMemory() (encodings int, step bool) {
	return len(m.cache), !reflect.ValueOf(m.step).IsZero()
}
